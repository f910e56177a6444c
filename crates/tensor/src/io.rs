//! Binary serialization of parameter sets and full training checkpoints.
//!
//! Two on-disk formats live here:
//!
//! **v1 weight blobs** (`RDW1`) — params only, kept for the detector
//! weight caches and for backwards compatibility:
//!
//! ```text
//! magic  b"RDW1"
//! u32    parameter count
//! per parameter:
//!   u32        name length, then that many UTF-8 bytes
//!   u32        rank, then rank u32 dims
//!   f32 * n    the flat value buffer
//! ```
//!
//! **v2 checkpoints** (`RDC2`) — named sections carrying everything a
//! training run needs to resume bitwise-identically: parameter sets,
//! optimizer moments, RNG stream positions and loss histories. The
//! payload is guarded by a CRC32 so truncation, bit rot and torn writes
//! are detected instead of silently corrupting a resumed run:
//!
//! ```text
//! magic  b"RDC2"
//! u32    version (currently 2)
//! u64    payload length in bytes
//! u32    CRC32 (IEEE) over the payload
//! payload:
//!   u32  section count
//!   per section:
//!     u32  name length, then that many UTF-8 bytes
//!     u8   kind (0 = params, 1 = tensor list, 2 = u64 list, 3 = f32 list)
//!     u64  body length in bytes, then the body
//! ```
//!
//! [`save_checkpoint_file`] writes atomically (temp file + fsync +
//! rename), so a crash mid-write leaves the previous checkpoint intact.
//! [`load_checkpoint_file`] also accepts legacy v1 blobs, exposing them
//! as a checkpoint with a single `"params"` section.

use std::error::Error;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::Path;

use rand::rngs::StdRng;

use crate::optim::{Adam, AdamState};
use crate::params::ParamSet;
use crate::tensor::Tensor;

const MAGIC: &[u8; 4] = b"RDW1";
const CK_MAGIC: &[u8; 4] = b"RDC2";
/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 2;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3), table-driven, dependency-free
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE) of a byte slice — the checksum guarding v2 checkpoints.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// One parameter whose name or shape disagrees between a weight file and
/// the model it is being loaded into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamMismatch {
    /// Position in the registration order.
    pub index: usize,
    /// Name registered in the destination model.
    pub model_name: String,
    /// Shape registered in the destination model.
    pub model_shape: Vec<usize>,
    /// Name stored in the file.
    pub file_name: String,
    /// Shape stored in the file.
    pub file_shape: Vec<usize>,
}

impl fmt::Display for ParamMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "param #{}: model has {}{:?}, file has {}{:?}",
            self.index, self.model_name, self.model_shape, self.file_name, self.file_shape
        )
    }
}

/// Error produced when decoding a weight blob fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeWeightsError {
    /// The buffer does not start with the expected magic bytes.
    BadMagic,
    /// The buffer ended before a field could be read.
    Truncated {
        /// Byte offset at which the read was attempted.
        offset: usize,
        /// Bytes the read needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// Structurally invalid metadata (bad UTF-8, implausible rank, ...).
    Malformed(String),
    /// The file holds a different number of parameters than the model.
    CountMismatch {
        /// Parameters stored in the file.
        file: usize,
        /// Parameters registered in the model.
        model: usize,
    },
    /// One or more parameters disagree on name or shape; every mismatch
    /// is listed, not just the first.
    ParamMismatch(Vec<ParamMismatch>),
}

impl fmt::Display for DecodeWeightsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid weight data: ")?;
        match self {
            DecodeWeightsError::BadMagic => write!(f, "bad magic"),
            DecodeWeightsError::Truncated {
                offset,
                needed,
                available,
            } => write!(
                f,
                "unexpected end of buffer (needed {needed} byte(s) at offset {offset}, {available} available)"
            ),
            DecodeWeightsError::Malformed(m) => write!(f, "{m}"),
            DecodeWeightsError::CountMismatch { file, model } => write!(
                f,
                "parameter count mismatch: file has {file}, model has {model}"
            ),
            DecodeWeightsError::ParamMismatch(list) => {
                write!(f, "{} parameter(s) mismatched:", list.len())?;
                for m in list {
                    write!(f, "\n  {m}")?;
                }
                Ok(())
            }
        }
    }
}

impl Error for DecodeWeightsError {}

/// Error produced when a v2 checkpoint cannot be read, written or
/// applied. Every failure mode a resume can hit is a variant here —
/// nothing in this module panics on bad data.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// Neither the v2 nor the legacy v1 magic was found.
    BadMagic,
    /// The header declares a version this build cannot read.
    UnsupportedVersion(u32),
    /// The file is shorter than its header claims (torn write).
    Truncated {
        /// Bytes the header promised.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// The payload checksum does not match (bit rot / partial write).
    CrcMismatch {
        /// Checksum stored in the header.
        stored: u32,
        /// Checksum computed over the payload.
        computed: u32,
    },
    /// A section body failed to decode.
    Decode(DecodeWeightsError),
    /// Structurally invalid section metadata.
    Malformed(String),
    /// A required section is absent.
    MissingSection(String),
    /// A section exists but holds a different kind of data.
    WrongKind {
        /// Section name.
        section: String,
        /// Kind the caller asked for.
        expected: &'static str,
    },
    /// The checkpoint was produced by an incompatible run (different
    /// config, model layout or dataset).
    StateMismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint: bad magic"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v} (this build reads v{CHECKPOINT_VERSION})")
            }
            CheckpointError::Truncated { expected, actual } => write!(
                f,
                "checkpoint truncated: header promises {expected} payload byte(s), found {actual}"
            ),
            CheckpointError::CrcMismatch { stored, computed } => write!(
                f,
                "checkpoint corrupt: CRC mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
            CheckpointError::Decode(e) => write!(f, "checkpoint section undecodable: {e}"),
            CheckpointError::Malformed(m) => write!(f, "checkpoint malformed: {m}"),
            CheckpointError::MissingSection(s) => write!(f, "checkpoint is missing section '{s}'"),
            CheckpointError::WrongKind { section, expected } => {
                write!(f, "checkpoint section '{section}' is not a {expected} section")
            }
            CheckpointError::StateMismatch(m) => write!(f, "checkpoint does not match this run: {m}"),
        }
    }
}

impl Error for CheckpointError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            CheckpointError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<DecodeWeightsError> for CheckpointError {
    fn from(e: DecodeWeightsError) -> Self {
        CheckpointError::Decode(e)
    }
}

// ---------------------------------------------------------------------------
// Byte reader
// ---------------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeWeightsError> {
        if self.pos + n > self.buf.len() {
            return Err(DecodeWeightsError::Truncated {
                offset: self.pos,
                needed: n,
                available: self.buf.len().saturating_sub(self.pos),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeWeightsError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeWeightsError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, DecodeWeightsError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn f32(&mut self) -> Result<f32, DecodeWeightsError> {
        let b = self.take(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn str(&mut self) -> Result<String, DecodeWeightsError> {
        let len = self.u32()? as usize;
        if len > 1 << 20 {
            return Err(DecodeWeightsError::Malformed(format!(
                "implausible string length {len}"
            )));
        }
        Ok(std::str::from_utf8(self.take(len)?)
            .map_err(|_| DecodeWeightsError::Malformed("string is not UTF-8".into()))?
            .to_owned())
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn push_tensor(out: &mut Vec<u8>, t: &Tensor) {
    let shape = t.shape();
    out.extend_from_slice(&(shape.len() as u32).to_le_bytes());
    for &d in shape {
        out.extend_from_slice(&(d as u32).to_le_bytes());
    }
    for &v in t.data() {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn read_tensor(r: &mut Reader<'_>, allow_empty: bool) -> Result<Tensor, DecodeWeightsError> {
    let rank = r.u32()? as usize;
    if rank > 8 {
        return Err(DecodeWeightsError::Malformed(format!(
            "implausible rank {rank}"
        )));
    }
    let mut shape = Vec::with_capacity(rank);
    for _ in 0..rank {
        shape.push(r.u32()? as usize);
    }
    let n: usize = shape.iter().product();
    if n == 0 && !allow_empty {
        return Err(DecodeWeightsError::Malformed("zero-element tensor".into()));
    }
    if n > (1 << 31) / 4 {
        return Err(DecodeWeightsError::Malformed(format!(
            "implausible tensor size {n}"
        )));
    }
    let bytes = r.take(n * 4)?;
    let mut data = Vec::with_capacity(n);
    for chunk in bytes.chunks_exact(4) {
        data.push(f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]));
    }
    Ok(Tensor::from_vec(data, &shape))
}

// ---------------------------------------------------------------------------
// v1 params blobs
// ---------------------------------------------------------------------------

fn encode_params_body(ps: &ParamSet, out: &mut Vec<u8>) {
    out.extend_from_slice(&(ps.len() as u32).to_le_bytes());
    for (_, p) in ps.iter() {
        push_str(out, p.name());
        push_tensor(out, p.value());
    }
}

fn decode_params_body(r: &mut Reader<'_>) -> Result<ParamSet, DecodeWeightsError> {
    let count = r.u32()? as usize;
    let mut ps = ParamSet::new();
    for _ in 0..count {
        let name = r.str()?;
        let value = read_tensor(r, false)?;
        ps.register(name, value);
    }
    Ok(ps)
}

/// Serializes every parameter value (gradients are not persisted).
pub fn encode_params(ps: &ParamSet) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    encode_params_body(ps, &mut out);
    out
}

/// Decodes a weight blob into a fresh [`ParamSet`].
///
/// # Errors
///
/// Returns [`DecodeWeightsError`] on a bad magic number, truncation, or
/// malformed metadata.
pub fn decode_params(buf: &[u8]) -> Result<ParamSet, DecodeWeightsError> {
    let mut r = Reader { buf, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(DecodeWeightsError::BadMagic);
    }
    decode_params_body(&mut r)
}

/// Copies `src`'s values into `dst`, requiring identical names, order and
/// shapes. Reports **every** mismatched parameter, not just the first.
fn copy_params_into(dst: &mut ParamSet, src: &ParamSet) -> Result<(), DecodeWeightsError> {
    if src.len() != dst.len() {
        return Err(DecodeWeightsError::CountMismatch {
            file: src.len(),
            model: dst.len(),
        });
    }
    let mut mismatches = Vec::new();
    for (i, ((_, d), (_, s))) in dst.iter().zip(src.iter()).enumerate() {
        if d.name() != s.name() || d.value().shape() != s.value().shape() {
            mismatches.push(ParamMismatch {
                index: i,
                model_name: d.name().to_owned(),
                model_shape: d.value().shape().to_vec(),
                file_name: s.name().to_owned(),
                file_shape: s.value().shape().to_vec(),
            });
        }
    }
    if !mismatches.is_empty() {
        return Err(DecodeWeightsError::ParamMismatch(mismatches));
    }
    for ((_, d), (_, s)) in dst.iter_mut().zip(src.iter()) {
        *d.value_mut() = s.value().clone();
    }
    Ok(())
}

/// Copies decoded values into an existing set with the same layout.
///
/// # Errors
///
/// Returns an error if names, order or shapes do not match; the error
/// lists every mismatched parameter with its index, name and shape on
/// both sides.
pub fn load_params_into(ps: &mut ParamSet, buf: &[u8]) -> Result<(), DecodeWeightsError> {
    let decoded = decode_params(buf)?;
    copy_params_into(ps, &decoded)
}

/// Writes a parameter set to a file atomically (temp file + fsync +
/// rename), so a crash mid-write cannot tear an existing file.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn save_params_file(ps: &ParamSet, path: impl AsRef<Path>) -> std::io::Result<()> {
    atomic_write(path.as_ref(), &encode_params(ps))
}

// ---------------------------------------------------------------------------
// v2 checkpoints
// ---------------------------------------------------------------------------

/// One named piece of training state inside a [`Checkpoint`].
#[derive(Debug, Clone)]
pub enum Section {
    /// A full parameter set (names, shapes, values).
    Params(ParamSet),
    /// An ordered list of tensors (e.g. Adam first/second moments).
    Tensors(Vec<Tensor>),
    /// Integer state (RNG stream positions, step counters, permutations).
    U64s(Vec<u64>),
    /// Scalar state (hyper-parameters, loss histories).
    F32s(Vec<f32>),
}

impl Section {
    fn kind(&self) -> u8 {
        match self {
            Section::Params(_) => 0,
            Section::Tensors(_) => 1,
            Section::U64s(_) => 2,
            Section::F32s(_) => 3,
        }
    }
}

/// Full training state as named, typed sections — everything needed to
/// resume a run bitwise-identically.
#[derive(Debug, Clone, Default)]
pub struct Checkpoint {
    sections: Vec<(String, Section)>,
}

impl Checkpoint {
    /// An empty checkpoint.
    pub fn new() -> Self {
        Self::default()
    }

    fn put(&mut self, name: impl Into<String>, s: Section) {
        let name = name.into();
        if let Some(slot) = self.sections.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = s;
        } else {
            self.sections.push((name, s));
        }
    }

    fn find(&self, name: &str) -> Result<&Section, CheckpointError> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
            .ok_or_else(|| CheckpointError::MissingSection(name.to_owned()))
    }

    /// Stores a copy of a parameter set.
    pub fn put_params(&mut self, name: impl Into<String>, ps: &ParamSet) {
        self.put(name, Section::Params(ps.clone()));
    }

    /// Stores a list of tensors.
    pub fn put_tensors(&mut self, name: impl Into<String>, ts: Vec<Tensor>) {
        self.put(name, Section::Tensors(ts));
    }

    /// Stores integer state.
    pub fn put_u64s(&mut self, name: impl Into<String>, vs: Vec<u64>) {
        self.put(name, Section::U64s(vs));
    }

    /// Stores scalar state.
    pub fn put_f32s(&mut self, name: impl Into<String>, vs: Vec<f32>) {
        self.put(name, Section::F32s(vs));
    }

    /// Stores a single integer.
    pub fn put_u64(&mut self, name: impl Into<String>, v: u64) {
        self.put_u64s(name, vec![v]);
    }

    /// Borrows a params section.
    pub fn params(&self, name: &str) -> Result<&ParamSet, CheckpointError> {
        match self.find(name)? {
            Section::Params(ps) => Ok(ps),
            _ => Err(CheckpointError::WrongKind {
                section: name.to_owned(),
                expected: "params",
            }),
        }
    }

    /// Borrows a tensor-list section.
    pub fn tensors(&self, name: &str) -> Result<&[Tensor], CheckpointError> {
        match self.find(name)? {
            Section::Tensors(ts) => Ok(ts),
            _ => Err(CheckpointError::WrongKind {
                section: name.to_owned(),
                expected: "tensor-list",
            }),
        }
    }

    /// Borrows a u64-list section.
    pub fn u64s(&self, name: &str) -> Result<&[u64], CheckpointError> {
        match self.find(name)? {
            Section::U64s(vs) => Ok(vs),
            _ => Err(CheckpointError::WrongKind {
                section: name.to_owned(),
                expected: "u64-list",
            }),
        }
    }

    /// Borrows an f32-list section.
    pub fn f32s(&self, name: &str) -> Result<&[f32], CheckpointError> {
        match self.find(name)? {
            Section::F32s(vs) => Ok(vs),
            _ => Err(CheckpointError::WrongKind {
                section: name.to_owned(),
                expected: "f32-list",
            }),
        }
    }

    /// Reads a single-integer section.
    pub fn u64(&self, name: &str) -> Result<u64, CheckpointError> {
        match self.u64s(name)? {
            [v] => Ok(*v),
            other => Err(CheckpointError::Malformed(format!(
                "section '{name}' holds {} integer(s), expected exactly 1",
                other.len()
            ))),
        }
    }

    /// Copies a params section's values into an existing set, validating
    /// names, order and shapes.
    pub fn load_params_into(&self, name: &str, ps: &mut ParamSet) -> Result<(), CheckpointError> {
        copy_params_into(ps, self.params(name)?).map_err(CheckpointError::Decode)
    }

    /// Stores an Adam optimizer's full state under `prefix`.
    pub fn put_adam(&mut self, prefix: &str, opt: &Adam) {
        let st = opt.export_state();
        self.put_f32s(
            format!("{prefix}.hyper"),
            vec![st.lr, st.beta1, st.beta2, st.eps],
        );
        self.put_u64(format!("{prefix}.t"), st.t);
        self.put_tensors(format!("{prefix}.m"), st.m);
        self.put_tensors(format!("{prefix}.v"), st.v);
    }

    /// Reads an Adam state stored by [`put_adam`](Self::put_adam).
    pub fn get_adam(&self, prefix: &str) -> Result<AdamState, CheckpointError> {
        let hyper = self.f32s(&format!("{prefix}.hyper"))?;
        let [lr, beta1, beta2, eps] = *hyper else {
            return Err(CheckpointError::Malformed(format!(
                "section '{prefix}.hyper' holds {} value(s), expected 4",
                hyper.len()
            )));
        };
        Ok(AdamState {
            lr,
            beta1,
            beta2,
            eps,
            t: self.u64(&format!("{prefix}.t"))?,
            m: self.tensors(&format!("{prefix}.m"))?.to_vec(),
            v: self.tensors(&format!("{prefix}.v"))?.to_vec(),
        })
    }

    /// Stores an RNG's exact stream position.
    pub fn put_rng(&mut self, name: impl Into<String>, rng: &StdRng) {
        self.put_u64s(name, rng.state().to_vec());
    }

    /// Rebuilds an RNG from a stored stream position.
    pub fn get_rng(&self, name: &str) -> Result<StdRng, CheckpointError> {
        let vs = self.u64s(name)?;
        let s: [u64; 4] = vs.try_into().map_err(|_| {
            CheckpointError::Malformed(format!(
                "section '{name}' holds {} word(s), expected 4 RNG state words",
                vs.len()
            ))
        })?;
        Ok(StdRng::from_state(s))
    }
}

/// Serializes a checkpoint to bytes (header + CRC-guarded payload).
pub fn encode_checkpoint(ck: &Checkpoint) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&(ck.sections.len() as u32).to_le_bytes());
    for (name, section) in &ck.sections {
        push_str(&mut payload, name);
        payload.push(section.kind());
        let mut body = Vec::new();
        match section {
            Section::Params(ps) => encode_params_body(ps, &mut body),
            Section::Tensors(ts) => {
                body.extend_from_slice(&(ts.len() as u32).to_le_bytes());
                for t in ts {
                    push_tensor(&mut body, t);
                }
            }
            Section::U64s(vs) => {
                body.extend_from_slice(&(vs.len() as u32).to_le_bytes());
                for v in vs {
                    body.extend_from_slice(&v.to_le_bytes());
                }
            }
            Section::F32s(vs) => {
                body.extend_from_slice(&(vs.len() as u32).to_le_bytes());
                for v in vs {
                    body.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        payload.extend_from_slice(&(body.len() as u64).to_le_bytes());
        payload.extend_from_slice(&body);
    }
    let mut out = Vec::with_capacity(payload.len() + 20);
    out.extend_from_slice(CK_MAGIC);
    out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

fn decode_section_body(kind: u8, body: &[u8]) -> Result<Section, CheckpointError> {
    let mut r = Reader { buf: body, pos: 0 };
    let section = match kind {
        0 => Section::Params(decode_params_body(&mut r)?),
        1 => {
            let count = r.u32()? as usize;
            let mut ts = Vec::with_capacity(count.min(1 << 16));
            for _ in 0..count {
                ts.push(read_tensor(&mut r, true)?);
            }
            Section::Tensors(ts)
        }
        2 => {
            let count = r.u32()? as usize;
            let mut vs = Vec::with_capacity(count.min(1 << 16));
            for _ in 0..count {
                vs.push(r.u64()?);
            }
            Section::U64s(vs)
        }
        3 => {
            let count = r.u32()? as usize;
            let mut vs = Vec::with_capacity(count.min(1 << 16));
            for _ in 0..count {
                vs.push(r.f32()?);
            }
            Section::F32s(vs)
        }
        other => {
            return Err(CheckpointError::Malformed(format!(
                "unknown section kind {other}"
            )))
        }
    };
    if !r.done() {
        return Err(CheckpointError::Malformed(format!(
            "section body has {} trailing byte(s)",
            body.len() - r.pos
        )));
    }
    Ok(section)
}

/// Decodes checkpoint bytes, verifying the version and CRC. Legacy v1
/// params-only blobs are accepted and surfaced as a checkpoint with a
/// single `"params"` section.
pub fn decode_checkpoint(buf: &[u8]) -> Result<Checkpoint, CheckpointError> {
    if buf.len() >= 4 && &buf[..4] == MAGIC {
        let ps = decode_params(buf)?;
        let mut ck = Checkpoint::new();
        ck.put_params("params", &ps);
        return Ok(ck);
    }
    if buf.len() < 20 {
        return Err(CheckpointError::Truncated {
            expected: 20,
            actual: buf.len(),
        });
    }
    if &buf[..4] != CK_MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let payload_len = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes")) as usize;
    let stored_crc = u32::from_le_bytes(buf[16..20].try_into().expect("4 bytes"));
    let payload = &buf[20..];
    if payload.len() != payload_len {
        return Err(CheckpointError::Truncated {
            expected: payload_len,
            actual: payload.len(),
        });
    }
    let computed = crc32(payload);
    if computed != stored_crc {
        return Err(CheckpointError::CrcMismatch {
            stored: stored_crc,
            computed,
        });
    }
    let mut r = Reader {
        buf: payload,
        pos: 0,
    };
    let n_sections = r.u32()? as usize;
    if n_sections > 1 << 16 {
        return Err(CheckpointError::Malformed(format!(
            "implausible section count {n_sections}"
        )));
    }
    let mut ck = Checkpoint::new();
    for _ in 0..n_sections {
        let name = r.str()?;
        let kind = r.u8()?;
        let body_len = r.u64()? as usize;
        let body = r.take(body_len)?;
        ck.put(name, decode_section_body(kind, body)?);
    }
    if !r.done() {
        return Err(CheckpointError::Malformed(format!(
            "payload has {} trailing byte(s)",
            payload.len() - r.pos
        )));
    }
    Ok(ck)
}

/// Writes `bytes` to `path` atomically: a sibling temp file is written
/// and fsynced, then renamed over the target, so readers only ever see
/// either the old complete file or the new complete file.
fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = {
        let mut os = path.as_os_str().to_owned();
        os.push(".tmp");
        std::path::PathBuf::from(os)
    };
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // Best-effort directory fsync so the rename itself is durable; not
    // all filesystems support opening directories, hence the soft error.
    if let Some(dir) = path.parent() {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Saves a checkpoint to a file atomically (temp + fsync + rename).
///
/// # Errors
///
/// Returns [`CheckpointError::Io`] on any filesystem failure.
pub fn save_checkpoint_file(
    ck: &Checkpoint,
    path: impl AsRef<Path>,
) -> Result<(), CheckpointError> {
    atomic_write(path.as_ref(), &encode_checkpoint(ck)).map_err(CheckpointError::Io)
}

/// Saves pre-encoded checkpoint bytes with the same atomic protocol as
/// [`save_checkpoint_file`]. The fault-injection harness uses this to
/// plant deliberately corrupted files; production code should prefer
/// [`save_checkpoint_file`].
///
/// # Errors
///
/// Returns [`CheckpointError::Io`] on any filesystem failure.
pub fn save_checkpoint_bytes(bytes: &[u8], path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    atomic_write(path.as_ref(), bytes).map_err(CheckpointError::Io)
}

/// Loads and verifies a checkpoint file (v2, or a legacy v1 blob).
///
/// # Errors
///
/// Returns a [`CheckpointError`] describing exactly what is wrong —
/// missing file, truncation, CRC mismatch, bad version or undecodable
/// section.
pub fn load_checkpoint_file(path: impl AsRef<Path>) -> Result<Checkpoint, CheckpointError> {
    let buf = fs::read(path).map_err(CheckpointError::Io)?;
    decode_checkpoint(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn sample_set() -> ParamSet {
        let mut rng = StdRng::seed_from_u64(77);
        let mut ps = ParamSet::new();
        ps.register("conv1.w", Tensor::randn(&mut rng, &[4, 3, 3, 3], 1.0));
        ps.register("conv1.b", Tensor::randn(&mut rng, &[4], 1.0));
        ps.register("fc.w", Tensor::randn(&mut rng, &[2, 10], 1.0));
        ps
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let ps = sample_set();
        let blob = encode_params(&ps);
        let back = decode_params(&blob).unwrap();
        assert_eq!(back.len(), ps.len());
        for ((_, a), (_, b)) in ps.iter().zip(back.iter()) {
            assert_eq!(a.name(), b.name());
            assert_eq!(a.value(), b.value());
        }
    }

    #[test]
    fn load_into_rejects_shape_mismatch() {
        let ps = sample_set();
        let blob = encode_params(&ps);
        let mut other = ParamSet::new();
        other.register("conv1.w", Tensor::zeros(&[4, 3, 3, 3]));
        assert!(matches!(
            load_params_into(&mut other, &blob),
            Err(DecodeWeightsError::CountMismatch { file: 3, model: 1 })
        ));
    }

    #[test]
    fn load_into_reports_every_mismatch() {
        let ps = sample_set();
        let blob = encode_params(&ps);
        let mut other = ParamSet::new();
        other.register("conv1.w", Tensor::zeros(&[4, 3, 3, 3])); // fine
        other.register("conv1.bias", Tensor::zeros(&[4])); // name differs
        other.register("fc.w", Tensor::zeros(&[10, 2])); // shape differs
        match load_params_into(&mut other, &blob) {
            Err(DecodeWeightsError::ParamMismatch(list)) => {
                assert_eq!(list.len(), 2);
                assert_eq!(list[0].index, 1);
                assert_eq!(list[0].model_name, "conv1.bias");
                assert_eq!(list[0].file_name, "conv1.b");
                assert_eq!(list[1].index, 2);
                assert_eq!(list[1].model_shape, vec![10, 2]);
                assert_eq!(list[1].file_shape, vec![2, 10]);
                let msg = DecodeWeightsError::ParamMismatch(list).to_string();
                assert!(msg.contains("conv1.bias"), "{msg}");
                assert!(msg.contains("[10, 2]"), "{msg}");
            }
            other => panic!("expected ParamMismatch, got {other:?}"),
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_params(b"nope").is_err());
        assert!(decode_params(b"RDW1").is_err());
        let ps = sample_set();
        let mut blob = encode_params(&ps);
        blob.truncate(blob.len() - 3);
        assert!(matches!(
            decode_params(&blob),
            Err(DecodeWeightsError::Truncated { .. })
        ));
    }

    #[test]
    fn load_into_replaces_values() {
        let ps = sample_set();
        let blob = encode_params(&ps);
        let mut rng = StdRng::seed_from_u64(1);
        let mut other = ParamSet::new();
        other.register("conv1.w", Tensor::randn(&mut rng, &[4, 3, 3, 3], 1.0));
        other.register("conv1.b", Tensor::randn(&mut rng, &[4], 1.0));
        other.register("fc.w", Tensor::randn(&mut rng, &[2, 10], 1.0));
        load_params_into(&mut other, &blob).unwrap();
        for ((_, a), (_, b)) in ps.iter().zip(other.iter()) {
            assert_eq!(a.value(), b.value());
        }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // the classic IEEE test vector
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn checkpoint_roundtrip_all_section_kinds() {
        let ps = sample_set();
        let mut rng = StdRng::seed_from_u64(9);
        rng.next_u64();
        let mut ck = Checkpoint::new();
        ck.put_params("gen", &ps);
        ck.put_tensors("moments", vec![Tensor::ones(&[2, 3]), Tensor::zeros(&[4])]);
        ck.put_u64s("order", vec![3, 1, 2, 0]);
        ck.put_f32s("hist", vec![1.5, -0.25, f32::MIN_POSITIVE]);
        ck.put_u64("step", 41);
        ck.put_rng("rng", &rng);
        let back = decode_checkpoint(&encode_checkpoint(&ck)).unwrap();
        let gen = back.params("gen").unwrap();
        assert_eq!(gen.len(), ps.len());
        for ((_, a), (_, b)) in ps.iter().zip(gen.iter()) {
            assert_eq!(a.value(), b.value());
        }
        assert_eq!(back.tensors("moments").unwrap().len(), 2);
        assert_eq!(back.u64s("order").unwrap(), &[3, 1, 2, 0]);
        assert_eq!(back.f32s("hist").unwrap(), &[1.5, -0.25, f32::MIN_POSITIVE]);
        assert_eq!(back.u64("step").unwrap(), 41);
        let mut restored = back.get_rng("rng").unwrap();
        let mut orig = rng.clone();
        assert_eq!(restored.next_u64(), orig.next_u64());
    }

    #[test]
    fn checkpoint_detects_truncation_and_bitflips() {
        let mut ck = Checkpoint::new();
        ck.put_u64s("order", vec![7; 32]);
        ck.put_f32s("hist", vec![0.5; 64]);
        let bytes = encode_checkpoint(&ck);
        // truncation
        assert!(matches!(
            decode_checkpoint(&bytes[..bytes.len() - 5]),
            Err(CheckpointError::Truncated { .. })
        ));
        // payload bit flip -> CRC mismatch
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x10;
        assert!(matches!(
            decode_checkpoint(&flipped),
            Err(CheckpointError::CrcMismatch { .. })
        ));
        // version bump -> unsupported
        let mut versioned = bytes.clone();
        versioned[4] = 9;
        assert!(matches!(
            decode_checkpoint(&versioned),
            Err(CheckpointError::UnsupportedVersion(9))
        ));
        // magic damage
        let mut bad = bytes;
        bad[0] = b'X';
        assert!(matches!(
            decode_checkpoint(&bad),
            Err(CheckpointError::BadMagic)
        ));
    }

    #[test]
    fn legacy_v1_blob_loads_as_checkpoint() {
        let ps = sample_set();
        let blob = encode_params(&ps);
        let ck = decode_checkpoint(&blob).unwrap();
        let back = ck.params("params").unwrap();
        assert_eq!(back.len(), ps.len());
        let mut dst = sample_set();
        ck.load_params_into("params", &mut dst).unwrap();
    }

    #[test]
    fn atomic_save_then_load_file() {
        let dir = std::env::temp_dir().join("rd_io_test_ckpt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.rdc2");
        let mut ck = Checkpoint::new();
        ck.put_u64("step", 5);
        save_checkpoint_file(&ck, &path).unwrap();
        // no stray temp file left behind
        assert!(!path.with_extension("rdc2.tmp").exists());
        let back = load_checkpoint_file(&path).unwrap();
        assert_eq!(back.u64("step").unwrap(), 5);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_and_wrong_kind_sections_error_cleanly() {
        let mut ck = Checkpoint::new();
        ck.put_u64s("ints", vec![1]);
        assert!(matches!(
            ck.params("nope"),
            Err(CheckpointError::MissingSection(_))
        ));
        assert!(matches!(
            ck.f32s("ints"),
            Err(CheckpointError::WrongKind { .. })
        ));
    }
}
