//! Failure accounting: an operation that panics is one failure and the run
//! goes on.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

static SEEN: Mutex<BTreeSet<String>> = Mutex::new(BTreeSet::new());

/// Replace the default panic hook with one that reports each distinct
/// panic site on stderr once (on any thread, including the server's
/// connection threads), so a defect that fires on every request does not
/// flood the log.
pub fn install_quiet_panic_hook() {
    std::panic::set_hook(Box::new(|info| {
        let site = info.location().map_or_else(|| "unknown".to_string(), |l| l.to_string());
        let first = SEEN.lock().map(|mut seen| seen.insert(site.clone())).unwrap_or(false);
        if first {
            let thread = std::thread::current();
            eprintln!(
                "panic on thread {:?} at {site}: {} (not reported again)",
                thread.name().unwrap_or("unnamed"),
                payload_text(info.payload())
            );
        }
    }));
}

fn payload_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one operation, turning a panic into `Err(message)`.
pub fn catch<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| payload_text(p.as_ref()))
}
