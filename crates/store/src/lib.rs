//! # qits-store — the snapshot & persistence layer
//!
//! Expensive artifacts of the image-computation stack — tensorized
//! operator TDDs, computed reachable subspaces, memoised job results —
//! die with the process unless they can be written down. This crate
//! defines the one on-disk form all of them share: a **versioned,
//! checksummed, serde-free binary format** over the manager-neutral
//! [`TddDump`] from `qits-tdd`, plus the container types the engine/pool
//! layers persist ([`Snapshot`], [`SubspaceDump`], [`ReachDump`], opaque
//! memo blobs keyed by the engine-spec fingerprint).
//!
//! # File layout
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"QITSSNAP"
//! 8       4     format version (little-endian u32; currently 1)
//! 12      8     payload length in bytes (little-endian u64)
//! 20      n     payload (the encoded Snapshot)
//! 20+n    16    FNV-1a/128 checksum of the payload (little-endian u128)
//! ```
//!
//! Every integer in the payload is fixed-width little-endian; `f64`s are
//! IEEE-754 bit patterns (`to_bits`/`from_bits`), so a dump → load round
//! trip is **bit-exact** — the property the resumable benches lean on.
//! Strings are a u64 length followed by UTF-8 bytes. Optional values are
//! a `u8` presence tag. Vectors are a u64 count followed by the elements.
//!
//! # Versioning & compatibility policy
//!
//! The version integer bumps whenever the payload layout changes shape;
//! readers accept exactly the versions they know ([`FORMAT_VERSION`]) and
//! reject everything else with [`StoreError::UnsupportedVersion`] — no
//! silent best-effort parsing of unknown layouts. A committed golden fixture
//! (`tests/fixtures/` in the repository) is loaded by CI on every push,
//! so an accidental layout drift that would orphan existing snapshots
//! fails the build instead of the operator. Corruption (bad magic, bad
//! checksum, truncation, malformed interior) is always a typed
//! [`StoreError`] — never a panic — because snapshot files cross trust
//! boundaries that in-process data never does.

#![forbid(unsafe_code)]

use std::io::{Read, Write};
use std::path::Path;

use qits_num::Cplx;
use qits_tdd::{DumpEdge, DumpNode, TddDump};
use qits_tensor::Var;

/// The eight magic bytes opening every snapshot file.
pub const MAGIC: [u8; 8] = *b"QITSSNAP";

/// The payload layout version this build writes and accepts.
pub const FORMAT_VERSION: u32 = 1;

/// 128-bit FNV-1a over one byte chunk — the payload checksum. The same
/// construction (constants included) keys the pool's result memo; a
/// cache-grade hash is exactly the right strength for an integrity check
/// that guards against corruption, not adversaries.
pub fn fnv128(bytes: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013B;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Everything that can go wrong reading or writing a snapshot, as data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The underlying file operation failed (open, read, write, ...).
    Io {
        /// The path involved.
        path: String,
        /// The OS error, stringified.
        detail: String,
    },
    /// The file does not start with [`MAGIC`] — not a snapshot at all.
    BadMagic,
    /// The file's version is one this build does not read.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// The version this build supports ([`FORMAT_VERSION`]).
        supported: u32,
    },
    /// The file ends before its header-declared payload (or trailer).
    Truncated,
    /// The payload's checksum does not match its trailer.
    ChecksumMismatch,
    /// The payload decoded to something structurally impossible.
    Malformed(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { path, detail } => write!(f, "snapshot i/o on '{path}': {detail}"),
            StoreError::BadMagic => write!(f, "not a qits snapshot (bad magic)"),
            StoreError::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot format version {found} is not supported (this build reads {supported})"
            ),
            StoreError::Truncated => write!(f, "snapshot file is truncated"),
            StoreError::ChecksumMismatch => write!(f, "snapshot payload fails its checksum"),
            StoreError::Malformed(detail) => write!(f, "malformed snapshot payload: {detail}"),
        }
    }
}

impl std::error::Error for StoreError {}

// ----------------------------------------------------------------------
// Byte-level primitives.
// ----------------------------------------------------------------------

/// Append-only little-endian encoder. All snapshot payloads (and the
/// opaque memo blobs the core crate embeds in them) are built with this,
/// so the whole stack shares one set of width/endianness decisions.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// A fresh, empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian u128.
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its IEEE-754 bit pattern (bit-exact round trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a bool as one byte (`0`/`1`).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes a length-prefixed byte blob.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// Writes `n` zero u64 words where retired counters sat, so a layout
    /// stays byte for byte what older builds wrote.
    pub fn put_retired(&mut self, n: usize) {
        for _ in 0..n {
            self.put_u64(0);
        }
    }
}

/// Checked little-endian decoder over a byte slice. Every getter returns
/// [`StoreError::Truncated`] instead of panicking when the data runs out.
#[derive(Debug)]
pub struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `data`, positioned at the start.
    pub fn new(data: &'a [u8]) -> ByteReader<'a> {
        ByteReader { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Truncated);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u32.
    pub fn get_u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian u64.
    pub fn get_u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian u128.
    pub fn get_u128(&mut self) -> Result<u128, StoreError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a bool (any non-zero byte is `true`).
    pub fn get_bool(&mut self) -> Result<bool, StoreError> {
        Ok(self.get_u8()? != 0)
    }

    /// Reads and discards `n` retired u64 counter words (see
    /// [`ByteWriter::put_retired`]).
    pub fn skip_retired(&mut self, n: usize) -> Result<(), StoreError> {
        self.take(8 * n).map(|_| ())
    }

    /// Reads a length the payload claims for a following sequence,
    /// sanity-bounded by the bytes actually remaining (each element needs
    /// at least `min_element_size` bytes) so a corrupted count cannot ask
    /// for an absurd allocation.
    pub fn get_count(&mut self, min_element_size: usize) -> Result<usize, StoreError> {
        let n = self.get_u64()?;
        let bound = self.remaining() / min_element_size.max(1);
        if n as usize > bound {
            return Err(StoreError::Malformed(format!(
                "sequence of {n} elements cannot fit the {} bytes left",
                self.remaining()
            )));
        }
        Ok(n as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, StoreError> {
        let n = self.get_count(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StoreError::Malformed("string is not UTF-8".to_string()))
    }

    /// Reads a length-prefixed byte blob.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, StoreError> {
        let n = self.get_count(1)?;
        Ok(self.take(n)?.to_vec())
    }
}

// ----------------------------------------------------------------------
// Container types.
// ----------------------------------------------------------------------

/// A serialized [`qits_tdd`] subspace: basis states and projector as
/// indices into the snapshot's [`TddDump::roots`] list (the core crate
/// owns the `Subspace` type; this is its persistence shape).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubspaceDump {
    /// Register width.
    pub n_qubits: u32,
    /// Index into the TDD dump's roots, one per basis state.
    pub basis: Vec<u32>,
    /// Index into the TDD dump's roots for the projector edge.
    pub projector: u32,
}

/// Serialized progress of a reachability fixpoint: the counters needed to
/// resume (or report) a run, next to which [`Snapshot::subspaces`] entry
/// holds the space reached so far. Its byte form keeps two retired
/// collection counters after `converged`, written as zeros.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReachDump {
    /// Index into [`Snapshot::subspaces`] of the reached space.
    pub space: u32,
    /// Fixpoint iterations completed when the snapshot was taken.
    pub iterations: u64,
    /// Whether the fixpoint had converged.
    pub converged: bool,
}

/// One spilled result-memo entry: the memo key (spec fingerprint + job
/// hash) and the result as an opaque blob the core crate encodes/decodes.
/// Keeping the value opaque here lets the job-output layout evolve inside
/// the core crate without this crate knowing job vocabulary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoEntry {
    /// The 128-bit memo key.
    pub key: u128,
    /// The encoded job output.
    pub value: Vec<u8>,
}

/// The root container every snapshot file holds: any subset of a TDD dump
/// (with subspaces and reachability progress resolved against it) and a
/// spilled result memo, stamped with the producing engine-spec's
/// fingerprint so a loader can refuse semantically foreign state.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Free-form label ("table1 checkpoint", a family name, ...).
    pub label: String,
    /// The engine-spec fingerprint of the producing session, if it had
    /// one — loaders compare before trusting subspaces or memo entries.
    pub spec_fingerprint: Option<u128>,
    /// The serialized diagrams every other section's edges live in.
    pub tdd: Option<TddDump>,
    /// Persisted subspaces (initial spaces, computed images, ...).
    pub subspaces: Vec<SubspaceDump>,
    /// Reachability progress, when the snapshot checkpoints a fixpoint.
    pub reach: Option<ReachDump>,
    /// Spilled result-memo entries.
    pub memo: Vec<MemoEntry>,
}

impl Snapshot {
    /// A snapshot with just a label, ready to be filled in.
    pub fn new(label: impl Into<String>) -> Snapshot {
        Snapshot {
            label: label.into(),
            ..Snapshot::default()
        }
    }

    /// Encodes the snapshot as a complete file image (header, payload,
    /// checksum trailer).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = ByteWriter::new();
        encode_snapshot(self, &mut payload);
        let payload = payload.into_bytes();
        let mut out = Vec::with_capacity(payload.len() + 36);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        let sum = fnv128(&payload);
        out.extend_from_slice(&payload);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Decodes a complete file image, verifying magic, version, length,
    /// and checksum before touching the payload.
    pub fn from_bytes(data: &[u8]) -> Result<Snapshot, StoreError> {
        let mut r = ByteReader::new(data);
        let magic = r.take(8)?;
        if magic != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = r.get_u32()?;
        if version != FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let len = r.get_u64()? as usize;
        if r.remaining() < len + 16 {
            return Err(StoreError::Truncated);
        }
        let payload = r.take(len)?;
        let declared = r.get_u128()?;
        if fnv128(payload) != declared {
            return Err(StoreError::ChecksumMismatch);
        }
        let mut pr = ByteReader::new(payload);
        let snap = decode_snapshot(&mut pr)?;
        if pr.remaining() != 0 {
            return Err(StoreError::Malformed(format!(
                "{} trailing payload bytes",
                pr.remaining()
            )));
        }
        Ok(snap)
    }

    /// Writes the snapshot to `path` (atomically enough for checkpoints:
    /// a temp file in the same directory, then a rename).
    pub fn write_to(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        let path = path.as_ref();
        let io_err = |e: std::io::Error| StoreError::Io {
            path: path.display().to_string(),
            detail: e.to_string(),
        };
        let tmp = path.with_extension("qsnap.tmp");
        let mut f = std::fs::File::create(&tmp).map_err(io_err)?;
        f.write_all(&self.to_bytes()).map_err(io_err)?;
        f.sync_all().map_err(io_err)?;
        drop(f);
        std::fs::rename(&tmp, path).map_err(io_err)
    }

    /// Reads and decodes a snapshot from `path`.
    pub fn read_from(path: impl AsRef<Path>) -> Result<Snapshot, StoreError> {
        let path = path.as_ref();
        let io_err = |e: std::io::Error| StoreError::Io {
            path: path.display().to_string(),
            detail: e.to_string(),
        };
        let mut f = std::fs::File::open(path).map_err(io_err)?;
        let mut data = Vec::new();
        f.read_to_end(&mut data).map_err(io_err)?;
        Snapshot::from_bytes(&data)
    }
}

// ----------------------------------------------------------------------
// Payload codec.
// ----------------------------------------------------------------------

fn encode_snapshot(s: &Snapshot, w: &mut ByteWriter) {
    w.put_str(&s.label);
    match s.spec_fingerprint {
        Some(fp) => {
            w.put_u8(1);
            w.put_u128(fp);
        }
        None => w.put_u8(0),
    }
    match &s.tdd {
        Some(d) => {
            w.put_u8(1);
            encode_tdd_dump(d, w);
        }
        None => w.put_u8(0),
    }
    w.put_u64(s.subspaces.len() as u64);
    for sub in &s.subspaces {
        w.put_u32(sub.n_qubits);
        w.put_u64(sub.basis.len() as u64);
        for &b in &sub.basis {
            w.put_u32(b);
        }
        w.put_u32(sub.projector);
    }
    match &s.reach {
        Some(r) => {
            w.put_u8(1);
            w.put_u32(r.space);
            w.put_u64(r.iterations);
            w.put_bool(r.converged);
            // Collections and reclaimed nodes.
            w.put_retired(2);
        }
        None => w.put_u8(0),
    }
    w.put_u64(s.memo.len() as u64);
    for e in &s.memo {
        w.put_u128(e.key);
        w.put_bytes(&e.value);
    }
}

fn decode_snapshot(r: &mut ByteReader<'_>) -> Result<Snapshot, StoreError> {
    let label = r.get_str()?;
    let spec_fingerprint = if r.get_u8()? != 0 {
        Some(r.get_u128()?)
    } else {
        None
    };
    let tdd = if r.get_u8()? != 0 {
        Some(decode_tdd_dump(r)?)
    } else {
        None
    };
    let n_subs = r.get_count(9)?;
    let mut subspaces = Vec::with_capacity(n_subs);
    for _ in 0..n_subs {
        let n_qubits = r.get_u32()?;
        let n_basis = r.get_count(4)?;
        let mut basis = Vec::with_capacity(n_basis);
        for _ in 0..n_basis {
            basis.push(r.get_u32()?);
        }
        let projector = r.get_u32()?;
        subspaces.push(SubspaceDump {
            n_qubits,
            basis,
            projector,
        });
    }
    let reach = if r.get_u8()? != 0 {
        let reach = ReachDump {
            space: r.get_u32()?,
            iterations: r.get_u64()?,
            converged: r.get_bool()?,
        };
        // Collections and reclaimed nodes.
        r.skip_retired(2)?;
        Some(reach)
    } else {
        None
    };
    let n_memo = r.get_count(24)?;
    let mut memo = Vec::with_capacity(n_memo);
    for _ in 0..n_memo {
        let key = r.get_u128()?;
        let value = r.get_bytes()?;
        memo.push(MemoEntry { key, value });
    }
    Ok(Snapshot {
        label,
        spec_fingerprint,
        tdd,
        subspaces,
        reach,
        memo,
    })
}

fn encode_edge(e: &DumpEdge, w: &mut ByteWriter) {
    w.put_u32(e.target);
    w.put_f64(e.weight.re);
    w.put_f64(e.weight.im);
}

fn decode_edge(r: &mut ByteReader<'_>) -> Result<DumpEdge, StoreError> {
    Ok(DumpEdge {
        target: r.get_u32()?,
        weight: Cplx::new(r.get_f64()?, r.get_f64()?),
    })
}

/// Encodes a [`TddDump`] into `w` — exposed so callers embedding dumps in
/// their own framing share the layout.
///
/// The layout keeps version 1's optional variable-order list after the
/// tolerance. Diagrams have one order now, so the list is always written
/// absent.
pub fn encode_tdd_dump(d: &TddDump, w: &mut ByteWriter) {
    w.put_f64(d.tolerance);
    w.put_u8(0);
    w.put_u64(d.nodes.len() as u64);
    for n in &d.nodes {
        w.put_u32(n.var.0);
        encode_edge(&n.low, w);
        encode_edge(&n.high, w);
    }
    w.put_u64(d.roots.len() as u64);
    for e in &d.roots {
        encode_edge(e, w);
    }
}

/// Decodes a [`TddDump`] from `r` (the inverse of [`encode_tdd_dump`]).
///
/// A variable-order list, which older builds wrote for a manager under an
/// installed or sifted order, is read and discarded: loading re-expresses
/// such a dump's nodes under the one order (see
/// [`qits_tdd::TddManager::load_dump`]).
pub fn decode_tdd_dump(r: &mut ByteReader<'_>) -> Result<TddDump, StoreError> {
    let tolerance = r.get_f64()?;
    if r.get_u8()? != 0 {
        for _ in 0..r.get_count(4)? {
            r.get_u32()?;
        }
    }
    let n_nodes = r.get_count(44)?;
    let mut nodes = Vec::with_capacity(n_nodes);
    for _ in 0..n_nodes {
        nodes.push(DumpNode {
            var: Var(r.get_u32()?),
            low: decode_edge(r)?,
            high: decode_edge(r)?,
        });
    }
    let n_roots = r.get_count(20)?;
    let mut roots = Vec::with_capacity(n_roots);
    for _ in 0..n_roots {
        roots.push(decode_edge(r)?);
    }
    Ok(TddDump {
        tolerance,
        nodes,
        roots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> Snapshot {
        Snapshot {
            label: "unit".to_string(),
            spec_fingerprint: Some(0xdead_beef_0123_4567_89ab_cdef_0011_2233),
            tdd: Some(TddDump {
                tolerance: 1e-10,
                nodes: vec![DumpNode {
                    var: Var(2),
                    low: DumpEdge {
                        target: 0,
                        weight: Cplx::new(1.0, 0.0),
                    },
                    high: DumpEdge {
                        target: 0,
                        weight: Cplx::new(-0.25, 0.125),
                    },
                }],
                roots: vec![DumpEdge {
                    target: 1,
                    weight: Cplx::new(0.5, -0.5),
                }],
            }),
            subspaces: vec![SubspaceDump {
                n_qubits: 3,
                basis: vec![0],
                projector: 0,
            }],
            reach: Some(ReachDump {
                space: 0,
                iterations: 7,
                converged: false,
            }),
            memo: vec![MemoEntry {
                key: 42,
                value: vec![1, 2, 3, 4],
            }],
        }
    }

    #[test]
    fn byte_round_trip_is_identity() {
        let snap = sample_snapshot();
        let bytes = snap.to_bytes();
        let back = Snapshot::from_bytes(&bytes).expect("round trip");
        assert_eq!(back, snap);
    }

    #[test]
    fn a_dumped_order_list_is_read_and_discarded() {
        // Version 1 as a build with installable orders wrote it: the order
        // flag set, then the list, then the nodes.
        let dump = sample_snapshot().tdd.unwrap();
        let mut w = ByteWriter::new();
        encode_tdd_dump(&dump, &mut w);
        let plain = w.into_bytes();
        let mut with_order = plain[..8].to_vec();
        with_order.push(1);
        with_order.extend_from_slice(&3u64.to_le_bytes());
        for v in [2u32, 0, 1] {
            with_order.extend_from_slice(&v.to_le_bytes());
        }
        with_order.extend_from_slice(&plain[9..]);
        let back = decode_tdd_dump(&mut ByteReader::new(&with_order)).unwrap();
        assert_eq!(back, dump);
        let mut w = ByteWriter::new();
        encode_tdd_dump(&back, &mut w);
        assert_eq!(w.into_bytes(), plain, "re-encoded without the list");
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snap = Snapshot::new("empty");
        let back = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(back, snap);
        assert!(back.tdd.is_none() && back.memo.is_empty());
    }

    #[test]
    fn f64_bit_patterns_survive_exactly() {
        let mut snap = Snapshot::new("bits");
        let tricky = f64::from_bits(0x3FF0_0000_0000_0001); // 1.0 + 1 ulp
        snap.tdd = Some(TddDump {
            tolerance: tricky,
            nodes: Vec::new(),
            roots: vec![DumpEdge {
                target: 0,
                weight: Cplx::new(tricky, -tricky),
            }],
        });
        let back = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
        let d = back.tdd.unwrap();
        assert_eq!(d.tolerance.to_bits(), tricky.to_bits());
        assert_eq!(d.roots[0].weight.re.to_bits(), tricky.to_bits());
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = sample_snapshot().to_bytes();
        bytes[0] = b'X';
        assert_eq!(Snapshot::from_bytes(&bytes), Err(StoreError::BadMagic));
    }

    #[test]
    fn future_version_is_refused() {
        let mut bytes = sample_snapshot().to_bytes();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            Snapshot::from_bytes(&bytes),
            Err(StoreError::UnsupportedVersion {
                found: 99,
                supported: FORMAT_VERSION
            })
        );
    }

    #[test]
    fn truncation_is_typed_at_every_length() {
        let bytes = sample_snapshot().to_bytes();
        for cut in 0..bytes.len() {
            let err = Snapshot::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    StoreError::Truncated | StoreError::BadMagic | StoreError::Malformed(_)
                ),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn payload_corruption_fails_the_checksum() {
        let mut bytes = sample_snapshot().to_bytes();
        let mid = 20 + (bytes.len() - 36) / 2;
        bytes[mid] ^= 0x40;
        assert_eq!(
            Snapshot::from_bytes(&bytes),
            Err(StoreError::ChecksumMismatch)
        );
    }

    #[test]
    fn trailing_garbage_inside_payload_is_malformed() {
        // Re-frame a valid payload with one extra byte, checksummed, so
        // the structural check (not the checksum) must catch it.
        let snap = sample_snapshot();
        let mut payload = ByteWriter::new();
        encode_snapshot(&snap, &mut payload);
        let mut payload = payload.into_bytes();
        payload.push(0xEE);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        let sum = fnv128(&payload);
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(StoreError::Malformed(_))
        ));
    }

    #[test]
    fn absurd_counts_do_not_allocate() {
        // A payload claiming u64::MAX memo entries must be rejected by the
        // count bound, not attempted.
        let mut payload = ByteWriter::new();
        payload.put_str("evil");
        payload.put_u8(0); // no fingerprint
        payload.put_u8(0); // no tdd
        payload.put_u64(u64::MAX); // subspace count
        let payload = payload.into_bytes();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        let sum = fnv128(&payload);
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(StoreError::Malformed(_))
        ));
    }

    #[test]
    fn file_round_trip_via_tempdir() {
        // Keep unit-test files under the build directory.
        let dir =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/store-unit-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("round_trip.qsnap");
        let snap = sample_snapshot();
        snap.write_to(&path).expect("write");
        let back = Snapshot::read_from(&path).expect("read");
        assert_eq!(back, snap);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = Snapshot::read_from("/does/not/exist.qsnap").unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }));
    }

    #[test]
    fn fnv_is_stable() {
        // The checksum constants are part of the format: pin them.
        assert_eq!(fnv128(b""), 0x6c62272e07bb014262b821756295c58d);
        assert_ne!(fnv128(b"a"), fnv128(b"b"));
    }
}
