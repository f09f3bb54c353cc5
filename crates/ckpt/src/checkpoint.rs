//! The versioned, serde-round-trip-exact checkpoint model.
//!
//! A [`Checkpoint`] captures everything a training run needs to resume
//! bit-identically: per-stage weights, optimizer state, the seeded RNG
//! stream position, the iteration index, and the frozen [`Schedule`] the
//! run was produced under. Three guards protect a restore:
//!
//! 1. **Schema version** — the on-disk envelope names its format version;
//!    an unknown version is a typed [`CkptError::SchemaVersion`], not a
//!    parse explosion.
//! 2. **Config fingerprint** — [`config_fingerprint`] hashes the schedule,
//!    replication width, learning rate bits, loss kind, recompute mode and
//!    stage shapes. Restoring under a different configuration is refused
//!    with [`CkptError::Fingerprint`] (resume-equivalence only holds when
//!    the program is the same program).
//! 3. **CRC-32 integrity** — the envelope carries a CRC over the canonical
//!    payload rendering; a flipped bit surfaces as [`CkptError::Integrity`].
//!
//! On disk a checkpoint is the two-space-indented envelope
//! `{"schema_version", "crc32", "checkpoint"}`. [`Checkpoint::save`]
//! renders the compact payload once, hashes it, and streams the envelope
//! by re-indenting that payload into a temp file that is then renamed over
//! the target, so a failed save never destroys the previous checkpoint.
//!
//! Exactness: every `f32` in the payload widens losslessly to `f64`, the
//! JSON writer emits the shortest round-trip rendering, and parsing
//! narrows back to the original bits — so "the weights in the file" and
//! "the weights in memory" are the same bits, which is what makes
//! resume-equals-uninterrupted provable rather than approximate.

use hanayo_core::action::Schedule;
use hanayo_model::Recompute;
use hanayo_tensor::optim::Adam;
use hanayo_tensor::Stage;
use hanayo_trace::Trace;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Version of the on-disk checkpoint format. Bump when the payload shape
/// changes; loaders refuse anything they do not understand.
pub const SCHEMA_VERSION: u32 = 1;

/// Position of the pinned `hanayo_tensor::rng::seeded` stream a run draws
/// its synthetic data from: `draws` scalar draws have been consumed from
/// stream `seed`. Resume reconstructs the stream with
/// `hanayo_tensor::rng::seeded_at(seed, draws)` and continues generating
/// the *same* data the uninterrupted run would have seen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RngCursor {
    /// Seed of the data stream.
    pub seed: u64,
    /// Scalar draws consumed so far.
    pub draws: u64,
}

/// Optimizer state at the checkpoint boundary.
///
/// The threaded runtime trains with plain SGD (stateless beyond the
/// learning rate); Adam carries its step counter and both moment estimates
/// per stage. Either round-trips bit-exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OptimizerState {
    /// Stochastic gradient descent: the whole state is the learning rate.
    Sgd {
        /// Learning rate.
        lr: f32,
    },
    /// Adam: one full state (t, m, v and hyper-parameters) per stage.
    Adam {
        /// Per-stage optimizer states, aligned with `Checkpoint::stages`.
        states: Vec<Adam>,
    },
}

/// A complete, resumable snapshot of a training run at a flush boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// [`config_fingerprint`] of the configuration that produced this
    /// checkpoint; restores under a different configuration are refused.
    pub fingerprint: u64,
    /// Completed iterations — the checkpoint sits on the boundary between
    /// iteration `iteration - 1` and `iteration`.
    pub iteration: u32,
    /// Data-parallel replica count of the run (1 = single pipeline).
    pub world: u32,
    /// The frozen schedule the run executes (action lists + stage map).
    pub schedule: Schedule,
    /// Global stage modules at the boundary (replicas are bit-identical,
    /// so one copy suffices even for data-parallel runs).
    pub stages: Vec<Stage>,
    /// Optimizer state at the boundary.
    pub optimizer: OptimizerState,
    /// Mean loss of every completed iteration.
    pub losses: Vec<f32>,
    /// Per-device peak of the live activation-stash counter over the
    /// completed iterations (device order; `world · P` entries for
    /// data-parallel runs).
    pub peak_stash_bytes: Vec<u64>,
    /// Data-stream position for runs that draw synthetic data from the
    /// pinned seeded stream (`None` when the caller supplies data).
    pub rng: Option<RngCursor>,
    /// The cluster-level `ParallelPlan` the run was tuned under, as its
    /// canonical JSON rendering (opaque here — the plan type lives above
    /// this crate in `hanayo-sim`).
    pub plan_json: Option<String>,
    /// Execution trace of the completed iterations, when the run traced.
    /// Resumed runs append their spans shifted past this trace's makespan,
    /// so the merged timeline stays on one clock.
    pub trace: Option<Trace>,
}

/// A restore that cannot (or must not) proceed, with enough context to say
/// why.
#[derive(Debug, Clone, PartialEq)]
pub enum CkptError {
    /// The file's schema version is not one this build understands.
    SchemaVersion {
        /// Version found in the envelope.
        found: u32,
        /// Version this build writes and reads.
        supported: u32,
    },
    /// The checkpoint was produced under a different configuration.
    Fingerprint {
        /// Fingerprint of the configuration attempting the restore.
        expected: u64,
        /// Fingerprint stored in the checkpoint.
        found: u64,
    },
    /// The payload does not match its CRC — the file was corrupted.
    Integrity {
        /// CRC stored in the envelope.
        stored: u32,
        /// CRC computed over the parsed payload's canonical rendering.
        computed: u32,
    },
    /// The file is not parseable as a checkpoint at all.
    Parse(String),
    /// Rendering the checkpoint as JSON failed (unreachable for this
    /// schema; surfaced as a typed error rather than a panic).
    Serialize(String),
    /// Reading or writing the file failed.
    Io(String),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::SchemaVersion { found, supported } => {
                write!(
                    f,
                    "checkpoint schema v{found} not supported (this build reads v{supported})"
                )
            }
            CkptError::Fingerprint { expected, found } => write!(
                f,
                "checkpoint was produced under a different configuration \
                 (fingerprint {found:#018x}, expected {expected:#018x})"
            ),
            CkptError::Integrity { stored, computed } => write!(
                f,
                "checkpoint payload corrupt: CRC32 {computed:#010x} != stored {stored:#010x}"
            ),
            CkptError::Parse(msg) => write!(f, "checkpoint unparseable: {msg}"),
            CkptError::Serialize(msg) => write!(f, "checkpoint unserializable: {msg}"),
            CkptError::Io(msg) => write!(f, "checkpoint I/O failed: {msg}"),
        }
    }
}

impl std::error::Error for CkptError {}

/// Capacity of the buffered writer [`Checkpoint::save`] streams through.
const WRITE_BUFFER: usize = 64 << 10;

/// The on-disk wrapper `{schema_version, crc32, checkpoint}` as a load
/// reads it once [`Header`] has vetted the version. Writers never build
/// it: [`write_envelope`] streams the same layout.
#[derive(Deserialize)]
struct Envelope {
    crc32: u32,
    checkpoint: Checkpoint,
}

/// Version probe read from the parsed tree *before* the payload, so an
/// unknown schema is reported as such instead of as a missing-field parse
/// error (extra fields are ignored by the value-tree deserializer).
#[derive(Deserialize)]
struct Header {
    schema_version: u32,
}

impl Checkpoint {
    /// Canonical (compact) payload rendering — the bytes the CRC covers.
    /// Deterministic because every container this type uses renders in a
    /// fixed order. Serialization of this schema cannot fail in practice;
    /// the `Result` keeps the write path panic-free regardless.
    pub fn payload_json(&self) -> Result<String, CkptError> {
        serde_json::to_string(self).map_err(|e| CkptError::Serialize(e.to_string()))
    }

    /// Render the full envelope in memory, byte for byte what
    /// [`Checkpoint::save`] writes: the pretty-printed envelope whose CRC
    /// covers the canonical compact payload (so formatting never affects
    /// it).
    pub fn to_json(&self) -> Result<String, CkptError> {
        let payload = self.payload_json()?;
        let mut out = Vec::with_capacity(2 * payload.len());
        write_envelope(&payload, &mut out).map_err(|e| CkptError::Serialize(e.to_string()))?;
        String::from_utf8(out).map_err(|e| CkptError::Serialize(e.to_string()))
    }

    /// Parse an envelope, guarding schema version and payload integrity.
    pub fn from_json(text: &str) -> Result<Checkpoint, CkptError> {
        let parse_error = |e: serde::Error| CkptError::Parse(e.to_string());
        // One parse: the version probe and the envelope read the same tree.
        let tree: serde_json::Value = serde_json::from_str(text).map_err(parse_error)?;
        let header = Header::from_value(&tree).map_err(parse_error)?;
        if header.schema_version != SCHEMA_VERSION {
            return Err(CkptError::SchemaVersion {
                found: header.schema_version,
                supported: SCHEMA_VERSION,
            });
        }
        let envelope: Envelope = serde_json::from_value(tree).map_err(parse_error)?;
        // Round-tripping is exact, so re-rendering the parsed payload
        // reproduces the canonical bytes the writer hashed; any value the
        // file lost or altered changes this CRC.
        let metrics_on = hanayo_metrics::enabled();
        let t0 = if metrics_on { hanayo_metrics::monotonic_nanos() } else { 0 };
        let computed = crc32(envelope.checkpoint.payload_json()?.as_bytes());
        if metrics_on {
            hanayo_metrics::observe(
                "hanayo_ckpt_crc_verify_ns",
                &[],
                hanayo_metrics::NANOS_BUCKETS,
                hanayo_metrics::monotonic_nanos().saturating_sub(t0),
            );
        }
        if computed != envelope.crc32 {
            if metrics_on {
                hanayo_metrics::counter_add("hanayo_ckpt_integrity_failures_total", &[], 1);
            }
            return Err(CkptError::Integrity { stored: envelope.crc32, computed });
        }
        Ok(envelope.checkpoint)
    }

    /// Write the envelope to a file, replacing it atomically: the bytes
    /// stream into `<path>.tmp` beside it, which is then renamed over
    /// `path`. On any error the temp file is removed and whatever `path`
    /// held before is left as it was.
    pub fn save(&self, path: &Path) -> Result<(), CkptError> {
        let payload = self.payload_json()?;
        let tmp = tmp_path(path);
        let written = write_file(&tmp, &payload)
            .and_then(|bytes| std::fs::rename(&tmp, path).map(|()| bytes))
            .map_err(|e| {
                let _ = std::fs::remove_file(&tmp);
                CkptError::Io(format!("{path:?}: {e}"))
            })?;
        if hanayo_metrics::enabled() {
            hanayo_metrics::counter_add("hanayo_ckpt_writes_total", &[], 1);
            hanayo_metrics::counter_add("hanayo_ckpt_bytes_written_total", &[], written);
        }
        Ok(())
    }

    /// Read and fully validate a checkpoint file.
    pub fn load(path: &Path) -> Result<Checkpoint, CkptError> {
        let text =
            std::fs::read_to_string(path).map_err(|e| CkptError::Io(format!("{path:?}: {e}")))?;
        let ckpt = Checkpoint::from_json(&text)?;
        if hanayo_metrics::enabled() {
            hanayo_metrics::counter_add("hanayo_ckpt_resume_total", &[], 1);
        }
        Ok(ckpt)
    }

    /// Refuse a restore under a configuration whose fingerprint differs
    /// from the one this checkpoint was produced under.
    pub fn guard(&self, expected_fingerprint: u64) -> Result<(), CkptError> {
        if self.fingerprint != expected_fingerprint {
            return Err(CkptError::Fingerprint {
                expected: expected_fingerprint,
                found: self.fingerprint,
            });
        }
        Ok(())
    }

    /// Bytes of checkpointable model + optimizer state (f32 parameters
    /// plus Adam moments when present) — the payload a recovery model
    /// charges for draining to durable storage.
    pub fn state_bytes(&self) -> u64 {
        let params: usize = self.stages.iter().map(Stage::param_count).sum();
        let optim = match &self.optimizer {
            OptimizerState::Sgd { .. } => 0,
            OptimizerState::Adam { states } => states.iter().map(Adam::state_bytes).sum(),
        };
        (params * 4 + optim) as u64
    }
}

/// `path` with `.tmp` appended to its file name: the file a save streams
/// into before renaming it over `path` (same directory, so the rename
/// stays on one file system).
fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".tmp");
    PathBuf::from(name)
}

/// Stream the envelope around `payload` into a new file at `path`;
/// returns the bytes that reached the file.
fn write_file(path: &Path, payload: &str) -> io::Result<u64> {
    let file = Counted { inner: File::create(path)?, bytes: 0 };
    let mut w = BufWriter::with_capacity(WRITE_BUFFER, file);
    write_envelope(payload, &mut w)?;
    let file = w.into_inner().map_err(io::IntoInnerError::into_error)?;
    Ok(file.bytes)
}

/// A writer that counts the bytes its inner writer accepted.
struct Counted<W> {
    inner: W,
    bytes: u64,
}

impl<W: Write> Write for Counted<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Write the pretty envelope around an already rendered compact payload:
/// exactly the bytes `serde_json::to_string_pretty` renders for the
/// object `{schema_version, crc32, checkpoint}`, without a second value
/// tree and without holding the pretty text in memory.
fn write_envelope(payload: &str, w: &mut impl Write) -> io::Result<()> {
    write!(
        w,
        "{{\n  \"schema_version\": {SCHEMA_VERSION},\n  \"crc32\": {},\n  \"checkpoint\": ",
        crc32(payload.as_bytes())
    )?;
    write_indented(payload.as_bytes(), 1, w)?;
    w.write_all(b"\n}")
}

/// Re-indent compact JSON the way the pretty writer lays a value out at
/// `depth`: a newline and two spaces per level after `[`, `{` and `,`, a
/// newline before `]` and `}`, a space after each key's `:`, while empty
/// `[]` and `{}` stay inline. Strings, escapes included, are copied as
/// they are. The compact writer puts no whitespace outside strings, so
/// this is the whole difference between the two renderings.
fn write_indented(compact: &[u8], mut depth: usize, w: &mut impl Write) -> io::Result<()> {
    /// The bytes acted on outside strings; all others are copied in runs.
    const STRUCTURAL: [bool; 256] = {
        let mut t = [false; 256];
        let mut k = 0;
        while k < 7 {
            t[b"\"[]{},:"[k] as usize] = true;
            k += 1;
        }
        t
    };
    // Start of the bytes not yet written.
    let mut run = 0;
    let mut i = 0;
    while i < compact.len() {
        let b = compact[i];
        if !STRUCTURAL[b as usize] {
            i += 1;
            continue;
        }
        match b {
            b'"' => {
                i += 1;
                while i < compact.len() && compact[i] != b'"' {
                    i += if compact[i] == b'\\' { 2 } else { 1 };
                }
            }
            b'[' | b'{' if matches!(compact.get(i + 1), Some(b']' | b'}')) => i += 1,
            b'[' | b'{' => {
                w.write_all(&compact[run..=i])?;
                depth += 1;
                newline_indent(w, depth)?;
                run = i + 1;
            }
            b']' | b'}' => {
                w.write_all(&compact[run..i])?;
                depth = depth.saturating_sub(1);
                newline_indent(w, depth)?;
                run = i;
            }
            b',' => {
                w.write_all(&compact[run..=i])?;
                newline_indent(w, depth)?;
                run = i + 1;
            }
            // The `:` after a key.
            _ => {
                w.write_all(&compact[run..=i])?;
                w.write_all(b" ")?;
                run = i + 1;
            }
        }
        i += 1;
    }
    w.write_all(&compact[run..])
}

/// A newline followed by two spaces per level of `depth`.
fn newline_indent(w: &mut impl Write, depth: usize) -> io::Result<()> {
    const LINE: [u8; 65] = {
        let mut line = [b' '; 65];
        line[0] = b'\n';
        line
    };
    let mut spaces = 2 * depth;
    let head = spaces.min(LINE.len() - 1);
    w.write_all(&LINE[..=head])?;
    spaces -= head;
    while spaces > 0 {
        let chunk = spaces.min(LINE.len() - 1);
        w.write_all(&LINE[1..=chunk])?;
        spaces -= chunk;
    }
    Ok(())
}

/// Slice-by-8 lookup tables for [`crc32`]: `CRC_TABLES[0]` is the classic
/// byte-at-a-time table; `CRC_TABLES[k][b]` advances `CRC_TABLES[0][b]`
/// through `k` further zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, reflected) over a byte string, table-driven eight
/// bytes at a time (slice-by-8), with a byte-at-a-time tail.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// FNV-1a 64-bit over length-delimited parts (so part boundaries cannot
/// alias: `["ab","c"]` and `["a","bc"]` hash differently).
pub fn fingerprint_parts(parts: &[&[u8]]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for part in parts {
        eat(&(part.len() as u64).to_le_bytes());
        eat(part);
    }
    h
}

/// Fingerprint of a training configuration: the frozen schedule (canonical
/// JSON), replication width, learning-rate bits, loss kind label,
/// recompute mode and per-stage parameter shapes. Two configurations with
/// equal fingerprints run the same program on the same shapes — the
/// precondition for bitwise resume-equivalence.
pub fn config_fingerprint(
    schedule: &Schedule,
    world: u32,
    lr: f32,
    loss_label: &str,
    recompute: Recompute,
    stages: &[Stage],
) -> u64 {
    // A schedule is a plain tree of structs and vecs, so serialization
    // cannot fail; if it ever did, folding the (deterministic) error text
    // into the hash keeps the guard sound — writer and reader derive the
    // same token either way — instead of panicking mid-training.
    let schedule_json =
        serde_json::to_string(schedule).unwrap_or_else(|e| format!("unserializable schedule: {e}"));
    let shape: Vec<u8> = stages
        .iter()
        .flat_map(|s| {
            (s.param_count() as u64)
                .to_le_bytes()
                .into_iter()
                .chain((s.blocks.len() as u64).to_le_bytes())
        })
        .collect();
    fingerprint_parts(&[
        schedule_json.as_bytes(),
        &world.to_le_bytes(),
        &lr.to_bits().to_le_bytes(),
        loss_label.as_bytes(),
        recompute.label().as_bytes(),
        &shape,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use hanayo_core::config::{PipelineConfig, Scheme};
    use hanayo_core::schedule::build_schedule;
    use hanayo_tensor::rng::{seeded, uniform};
    use hanayo_trace::{TraceEvent, TraceKind};
    use proptest::prelude::*;

    fn sample() -> Checkpoint {
        let cfg = PipelineConfig::new(2, 2, Scheme::Dapple).unwrap();
        let schedule = build_schedule(&cfg).unwrap();
        let stages: Vec<Stage> = (0..2).map(|i| Stage::mlp(&mut seeded(40 + i), 6, 1)).collect();
        let fingerprint = config_fingerprint(&schedule, 1, 0.05, "mse", Recompute::None, &stages);
        Checkpoint {
            fingerprint,
            iteration: 3,
            world: 1,
            schedule,
            stages,
            optimizer: OptimizerState::Sgd { lr: 0.05 },
            losses: vec![0.75, 0.5, 0.1 + 0.2],
            peak_stash_bytes: vec![1234, 5678],
            rng: Some(RngCursor { seed: 7, draws: 96 }),
            plan_json: None,
            trace: None,
        }
    }

    /// The envelope as a value tree, for the rendering oracle below.
    #[derive(Serialize)]
    struct PrettyEnvelope {
        schema_version: u32,
        crc32: u32,
        checkpoint: Checkpoint,
    }

    /// The reference rendering: the whole envelope built as a value and
    /// pretty-printed by the JSON writer, its CRC taken bit by bit. Every
    /// file ever written must keep matching it, or older checkpoints stop
    /// loading.
    fn pretty_oracle(c: &Checkpoint) -> String {
        let envelope = PrettyEnvelope {
            schema_version: SCHEMA_VERSION,
            crc32: crc32_bitwise(c.payload_json().unwrap().as_bytes()),
            checkpoint: c.clone(),
        };
        serde_json::to_string_pretty(&envelope).unwrap()
    }

    /// Reference CRC-32: one bit at a time, no table.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    /// `sample()` and one variant per rendering corner: Adam moments, a
    /// trace, a plan string full of JSON punctuation and escapes, empty
    /// vectors and non-finite losses.
    fn rendering_cases() -> Vec<(&'static str, Checkpoint)> {
        let mut adam = sample();
        let mut stages = adam.stages.clone();
        let mut states: Vec<Adam> = stages.iter().map(|s| Adam::new(s, 0.01)).collect();
        for (stage, state) in stages.iter_mut().zip(&mut states) {
            let x = uniform(&mut seeded(9), 3, 6, 1.0);
            let (y, stash) = stage.forward(&x);
            let (_, grads) = stage.backward(&stash, &y);
            state.step(stage, &grads);
        }
        adam.stages = stages;
        adam.optimizer = OptimizerState::Adam { states };

        let mut traced = sample();
        let event = |device, kind, mb, t_start, t_end| TraceEvent {
            device,
            kind,
            mb,
            stage: Some(device),
            t_start,
            t_end,
        };
        traced.trace = Some(Trace {
            devices: 2,
            events: vec![
                event(0, TraceKind::Fwd, Some(0), 0.0, 0.25),
                event(1, TraceKind::Bwd, Some(0), 0.5, 1.0 / 3.0 + 0.5),
                event(1, TraceKind::Optim, None, 1.0, 1.5e-3 + 1.0),
            ],
        });

        let mut plan = sample();
        plan.plan_json =
            Some("{\"a\":[1,{\"b\":\"x\\\"y\\\\z\"}],\"c\":\"\n:,[{\\\\\",\"\":[]}".to_string());

        let mut empty = sample();
        empty.losses.clear();
        empty.peak_stash_bytes.clear();
        empty.rng = None;

        let mut non_finite = sample();
        non_finite.losses = vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 1e-38];

        vec![
            ("sample", sample()),
            ("adam", adam),
            ("traced", traced),
            ("plan_json", plan),
            ("empty", empty),
            ("non_finite", non_finite),
        ]
    }

    /// A fresh directory under the system temp dir for one test.
    fn scratch_dir(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hanayo_ckpt_{test}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn to_json_and_saved_bytes_equal_the_pretty_envelope() {
        let dir = scratch_dir("identity");
        for (name, c) in rendering_cases() {
            let expected = pretty_oracle(&c);
            assert_eq!(c.to_json().unwrap(), expected, "{name}: to_json");
            let path = dir.join(format!("{name}.json"));
            c.save(&path).unwrap();
            assert_eq!(std::fs::read_to_string(&path).unwrap(), expected, "{name}: save");
            // And the file loads back to the same bytes (NaN != NaN, so
            // compare renderings rather than values).
            assert_eq!(Checkpoint::load(&path).unwrap().to_json().unwrap(), expected, "{name}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_rename_keeps_earlier_checkpoint_and_removes_the_temp_file() {
        // The target is a non-empty directory holding an earlier
        // checkpoint: the envelope streams into `<target>.tmp`, then the
        // rename over the directory fails.
        let dir = scratch_dir("rename");
        let target = dir.join("checkpoint.json");
        std::fs::create_dir(&target).unwrap();
        let earlier = target.join("earlier.json");
        let c = sample();
        c.save(&earlier).unwrap();
        let err = c.save(&target).unwrap_err();
        assert!(matches!(err, CkptError::Io(_)), "{err:?}");
        assert_eq!(Checkpoint::load(&earlier).unwrap(), c);
        assert!(tmp_path(&target).symlink_metadata().is_err(), "temp file left behind");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn failed_write_leaves_the_previous_file_byte_for_byte() {
        // Writes to /dev/full fail with ENOSPC; pointing the temp file at
        // it makes the save fail mid-stream, where an in-place write would
        // already have truncated the previous checkpoint.
        let full = Path::new("/dev/full");
        if !full.exists() {
            return;
        }
        let dir = scratch_dir("midwrite");
        let path = dir.join("checkpoint.json");
        sample().save(&path).unwrap();
        let before = std::fs::read(&path).unwrap();
        std::os::unix::fs::symlink(full, tmp_path(&path)).unwrap();
        let mut newer = sample();
        newer.iteration += 1;
        let err = newer.save(&path).unwrap_err();
        assert!(matches!(err, CkptError::Io(_)), "{err:?}");
        assert_eq!(std::fs::read(&path).unwrap(), before);
        assert_eq!(Checkpoint::load(&path).unwrap(), sample());
        assert!(tmp_path(&path).symlink_metadata().is_err(), "temp file left behind");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_replaces_an_existing_file() {
        let dir = scratch_dir("replace");
        let path = dir.join("checkpoint.json");
        sample().save(&path).unwrap();
        let mut newer = sample();
        newer.iteration += 1;
        newer.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), newer);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1, "only the checkpoint remains");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let c = sample();
        let back = Checkpoint::from_json(&c.to_json().unwrap()).unwrap();
        assert_eq!(back, c);
        let bits = |c: &Checkpoint| {
            c.stages.iter().flat_map(|s| s.flat_params()).map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(bits(&back), bits(&c), "weights drifted through the file format");
        assert_eq!(
            back.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            c.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn save_load_roundtrip() {
        let c = sample();
        let path = std::env::temp_dir().join("hanayo_ckpt_test.json");
        c.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), c);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_schema_version_is_a_typed_error() {
        let json = sample().to_json().unwrap().replacen(
            "\"schema_version\": 1",
            "\"schema_version\": 99",
            1,
        );
        let err = Checkpoint::from_json(&json).unwrap_err();
        assert_eq!(err, CkptError::SchemaVersion { found: 99, supported: SCHEMA_VERSION });
        assert!(err.to_string().contains("v99"));
    }

    #[test]
    fn corrupted_payload_fails_the_crc() {
        let c = sample();
        let json = c.to_json().unwrap();
        // Flip one stored loss value; the envelope still parses but the
        // payload no longer matches its CRC.
        let needle = "0.75";
        assert!(json.contains(needle), "test needle missing from rendering");
        let tampered = json.replacen(needle, "0.76", 1);
        match Checkpoint::from_json(&tampered) {
            Err(CkptError::Integrity { stored, computed }) => assert_ne!(stored, computed),
            other => panic!("expected Integrity error, got {other:?}"),
        }
    }

    #[test]
    fn whitespace_changes_do_not_trip_the_crc() {
        // The CRC covers the canonical payload, not the file formatting.
        let c = sample();
        let json = c.to_json().unwrap().replace('\n', " ");
        assert_eq!(Checkpoint::from_json(&json).unwrap(), c);
    }

    #[test]
    fn fingerprint_guard_names_both_sides() {
        let c = sample();
        c.guard(c.fingerprint).unwrap();
        let err = c.guard(42).unwrap_err();
        assert_eq!(err, CkptError::Fingerprint { expected: 42, found: c.fingerprint });
        assert!(err.to_string().contains("different configuration"));
    }

    #[test]
    fn fingerprint_is_sensitive_to_every_axis() {
        let cfg = PipelineConfig::new(2, 2, Scheme::Dapple).unwrap();
        let schedule = build_schedule(&cfg).unwrap();
        let other_schedule =
            build_schedule(&PipelineConfig::new(2, 2, Scheme::GPipe).unwrap()).unwrap();
        let stages: Vec<Stage> = (0..2).map(|i| Stage::mlp(&mut seeded(50 + i), 6, 1)).collect();
        let base = config_fingerprint(&schedule, 1, 0.05, "mse", Recompute::None, &stages);
        assert_ne!(
            base,
            config_fingerprint(&other_schedule, 1, 0.05, "mse", Recompute::None, &stages)
        );
        assert_ne!(base, config_fingerprint(&schedule, 2, 0.05, "mse", Recompute::None, &stages));
        assert_ne!(base, config_fingerprint(&schedule, 1, 0.06, "mse", Recompute::None, &stages));
        assert_ne!(base, config_fingerprint(&schedule, 1, 0.05, "xent", Recompute::None, &stages));
        assert_ne!(base, config_fingerprint(&schedule, 1, 0.05, "mse", Recompute::Full, &stages));
        let fatter: Vec<Stage> = (0..2).map(|i| Stage::mlp(&mut seeded(50 + i), 8, 1)).collect();
        assert_ne!(base, config_fingerprint(&schedule, 1, 0.05, "mse", Recompute::None, &fatter));
        // Same inputs, same fingerprint (it is a pure function).
        assert_eq!(base, config_fingerprint(&schedule, 1, 0.05, "mse", Recompute::None, &stages));
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
    }

    proptest! {
        #[test]
        fn table_crc32_equals_the_bitwise_reference(
            bytes in proptest::collection::vec(0u8..=255, 0..200),
        ) {
            // Dropping 0..=7 trailing bytes covers every length modulo 8.
            for cut in 0..=bytes.len().min(7) {
                let head = &bytes[..bytes.len() - cut];
                prop_assert_eq!(crc32(head), crc32_bitwise(head));
            }
        }
    }

    #[test]
    fn fingerprint_parts_are_length_delimited() {
        assert_ne!(fingerprint_parts(&[b"ab", b"c"]), fingerprint_parts(&[b"a", b"bc"]));
    }

    #[test]
    fn state_bytes_counts_params_and_moments() {
        let mut c = sample();
        let params: usize = c.stages.iter().map(Stage::param_count).sum();
        assert_eq!(c.state_bytes(), (params * 4) as u64);
        c.optimizer =
            OptimizerState::Adam { states: c.stages.iter().map(|s| Adam::new(s, 0.01)).collect() };
        assert_eq!(c.state_bytes(), (params * 4 + params * 8) as u64);
    }
}
