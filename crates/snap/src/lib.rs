//! Versioned, checksummed binary state serialization — the wire layer
//! under checkpoint/restore.
//!
//! Snapshots must be **bit-identical** (the restore guarantee is defined
//! in terms of byte equality of downstream artifacts), **host-portable**
//! (a checkpoint written on one machine resumes on another), and
//! **tamper-evident** (a truncated or corrupted file is a structured
//! error, never a panic or a silently wrong resume). That rules out both
//! `Debug`-style text and anything pointer- or layout-dependent, and it
//! is why this crate exists instead of a JSON round-trip: the simulator's
//! hot state contains `f64`s whose exact bit patterns matter and maps
//! whose iteration order must not leak into the artifact.
//!
//! The format is deliberately boring:
//!
//! * every integer is little-endian fixed-width; `usize` travels as `u64`;
//! * `f64` travels as its IEEE-754 bit pattern ([`f64::to_bits`]) so
//!   NaN payloads and signed zeros survive exactly;
//! * variable-length collections are a `u64` count followed by elements;
//! * `HashMap`s serialize sorted by key, making the byte stream a pure
//!   function of the *content* (two equal maps always serialize equally);
//! * the outer envelope ([`SnapWriter::finish`] / [`SnapReader::open`])
//!   is `magic ‖ version ‖ payload-length ‖ payload ‖ checksum64(payload)`.
//!
//! No wall-clock values, thread ids, or addresses ever enter the stream.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Magic prefix of every snapshot envelope (`b"PCSN"`).
pub const MAGIC: [u8; 4] = *b"PCSN";

/// Current envelope version. Bump on any incompatible layout change; old
/// versions are rejected with [`SnapError::BadVersion`] rather than
/// misread.
///
/// Version 2: a pending arrival end carries its received power, and a
/// node's radio section is its receive rows plus the locked frame — the
/// per-node list of arrivals on the air, and with it the list's
/// insertion-history order, left the format.
///
/// Version 3: a MAC's power control is its three pieces of state — the
/// needed-level table, the RTS ladder rung and the measured noise — in
/// one place; the table's copy of the MAC configuration left the format.
///
/// Version 4: every section holds run-time state only. The energy meter
/// is its power on the air, its last change and its radiated total; a
/// traffic source writes its arrival process's fields once; the backoff,
/// the PCMAC sent table and the interface queue dropped their copies of
/// the MAC configuration; a static field's movement section is empty;
/// and the metrics section dropped a counter that is always 0.
pub const VERSION: u32 = 4;

/// Everything that can go wrong reading a snapshot. All variants are
/// recoverable by design: a caller falls back to recomputing from
/// scratch, never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The stream ended before the declared content did (short read,
    /// truncated file).
    Truncated,
    /// The envelope does not start with [`MAGIC`] — not a snapshot.
    BadMagic,
    /// The envelope version is not [`VERSION`].
    BadVersion(u32),
    /// The payload checksum does not match — bit rot or torn write.
    BadChecksum,
    /// The snapshot was taken under a different scenario configuration
    /// than the one it is being restored into.
    CfgMismatch,
    /// The bytes decoded but violate an invariant (impossible enum tag,
    /// inconsistent lengths, non-canonical ordering).
    Corrupt(&'static str),
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "snapshot truncated: stream ended early"),
            SnapError::BadMagic => write!(f, "not a snapshot: bad magic prefix"),
            SnapError::BadVersion(v) => {
                write!(f, "unsupported snapshot version {v} (expected {VERSION})")
            }
            SnapError::BadChecksum => write!(f, "snapshot checksum mismatch: corrupted payload"),
            SnapError::CfgMismatch => {
                write!(f, "snapshot was taken under a different scenario config")
            }
            SnapError::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// FNV-1a 64-bit over `bytes` — small, dependency-free, and stable
/// across platforms. Detection-only (torn writes, truncation past the
/// length field, bit rot), not cryptographic.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Word-at-a-time xor-multiply checksum: the FNV-1a structure applied
/// to 8-byte little-endian words (tail zero-padded, total length folded
/// in). Byte-wise FNV is a strict multiply-latency chain — ~4 cycles
/// *per byte* — which made checksumming a 75 MB checkpoint cost more
/// than serializing it; this variant runs 8× fewer sequential
/// multiplies for the same torn-write/bit-rot detection power. Stable
/// across platforms (explicit little-endian), detection-only, not
/// cryptographic.
pub fn checksum64(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h ^= u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = h.wrapping_mul(PRIME);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h ^= u64::from_le_bytes(tail);
        h = h.wrapping_mul(PRIME);
    }
    // Fold the length in so a zero-padded tail cannot alias a longer
    // input, and give the final state one more mix.
    h ^= bytes.len() as u64;
    h.wrapping_mul(PRIME)
}

/// Bytes of envelope ahead of the payload: magic, version, length.
const HEADER_LEN: usize = 16;

/// Append-only byte sink for snapshot payloads.
#[derive(Debug)]
pub struct SnapWriter {
    /// The envelope header (length still unset) followed by the payload,
    /// so sealing a payload of tens of megabytes appends a checksum
    /// instead of copying everything into a second buffer.
    buf: Vec<u8>,
}

impl Default for SnapWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::with_capacity(48)
    }

    /// An empty writer with room for `payload` bytes and the envelope, for
    /// callers that know roughly how much they are about to write.
    pub fn with_capacity(payload: usize) -> Self {
        let mut buf = Vec::with_capacity(HEADER_LEN + payload + 8);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        debug_assert_eq!(buf.len(), HEADER_LEN);
        SnapWriter { buf }
    }

    /// Reset to empty, keeping the allocation — for callers serializing
    /// many small payloads (per-node state blobs) through one scratch
    /// writer instead of paying allocator growth per payload.
    pub fn clear(&mut self) {
        self.buf.truncate(HEADER_LEN);
    }

    /// Raw little-endian primitive writes.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    /// Write a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Write a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Write a `u128`.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Write an `f64` as its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    /// Write raw bytes (caller is responsible for length framing).
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
    /// Write a length-prefixed byte blob in one bulk copy. Wire-identical
    /// to `Vec::<u8>::save` through the generic per-element path, but a
    /// single `memcpy` — node-state blobs reach tens of megabytes per
    /// snapshot at N = 64k, where per-byte `Snap` calls were the
    /// checkpoint serialization bottleneck.
    pub fn blob(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.bytes(v);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len() - HEADER_LEN
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The raw payload written so far (no envelope).
    pub fn payload(&self) -> &[u8] {
        &self.buf[HEADER_LEN..]
    }

    /// Seal the payload into the versioned, checksummed envelope:
    /// `MAGIC ‖ version:u32 ‖ len:u64 ‖ payload ‖ checksum64(payload)`.
    pub fn finish(mut self) -> Vec<u8> {
        let len = self.len() as u64;
        self.buf[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&len.to_le_bytes());
        let sum = checksum64(self.payload());
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }
}

/// Cursor over a verified snapshot payload.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Verify the envelope of `bytes` (magic, version, length, checksum)
    /// and return a reader positioned at the start of the payload.
    pub fn open(bytes: &'a [u8]) -> Result<SnapReader<'a>, SnapError> {
        if bytes.len() < 16 {
            return Err(SnapError::Truncated);
        }
        if bytes[..4] != MAGIC {
            return Err(SnapError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(SnapError::BadVersion(version));
        }
        let len = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")) as usize;
        let need = 16usize
            .checked_add(len)
            .and_then(|n| n.checked_add(8))
            .ok_or(SnapError::Corrupt("payload length overflows"))?;
        if bytes.len() < need {
            return Err(SnapError::Truncated);
        }
        let payload = &bytes[16..16 + len];
        let sum = u64::from_le_bytes(bytes[16 + len..16 + len + 8].try_into().expect("8 bytes"));
        if checksum64(payload) != sum {
            return Err(SnapError::BadChecksum);
        }
        Ok(SnapReader {
            buf: payload,
            pos: 0,
        })
    }

    /// A reader over a bare payload (no envelope) — for nested sections
    /// and tests.
    pub fn over(payload: &'a [u8]) -> SnapReader<'a> {
        SnapReader {
            buf: payload,
            pos: 0,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        let end = self.pos.checked_add(n).ok_or(SnapError::Truncated)?;
        if end > self.buf.len() {
            return Err(SnapError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }
    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }
    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
    /// Read a `u128`.
    pub fn u128(&mut self) -> Result<u128, SnapError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().expect("16")))
    }
    /// Read an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }
    /// Read a length-prefix and sanity-cap it against the bytes that
    /// could plausibly remain (every element costs at least one byte).
    pub fn len_prefix(&mut self) -> Result<usize, SnapError> {
        let n = self.u64()?;
        if n > (self.buf.len() - self.pos) as u64 {
            return Err(SnapError::Corrupt("length prefix exceeds remaining bytes"));
        }
        Ok(n as usize)
    }

    /// Read a length-prefixed byte blob written by [`SnapWriter::blob`]
    /// (or the generic `Vec<u8>` path) in one bulk copy.
    pub fn blob(&mut self) -> Result<Vec<u8>, SnapError> {
        let n = self.len_prefix()?;
        Ok(self.take(n)?.to_vec())
    }

    /// `true` when the whole payload has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// A type that can serialize its complete deterministic state into a
/// [`SnapWriter`] and rebuild itself from a [`SnapReader`].
pub trait Snap: Sized {
    /// Append this value's canonical byte representation.
    fn save(&self, w: &mut SnapWriter);
    /// Rebuild a value from the stream.
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

impl Snap for u8 {
    fn save(&self, w: &mut SnapWriter) {
        w.u8(*self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.u8()
    }
}

impl Snap for u32 {
    fn save(&self, w: &mut SnapWriter) {
        w.u32(*self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.u32()
    }
}

impl Snap for u64 {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(*self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.u64()
    }
}

impl Snap for u128 {
    fn save(&self, w: &mut SnapWriter) {
        w.u128(*self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.u128()
    }
}

impl Snap for usize {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(*self as u64);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let v = r.u64()?;
        usize::try_from(v).map_err(|_| SnapError::Corrupt("usize out of range"))
    }
}

impl Snap for bool {
    fn save(&self, w: &mut SnapWriter) {
        w.u8(*self as u8);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Corrupt("bool tag")),
        }
    }
}

impl Snap for f64 {
    fn save(&self, w: &mut SnapWriter) {
        w.f64(*self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.f64()
    }
}

impl Snap for String {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.len() as u64);
        w.bytes(self.as_bytes());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.len_prefix()?;
        let bytes = r.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapError::Corrupt("string not utf-8"))
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.len() as u64);
        for item in self {
            item.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.len_prefix()?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::load(r)?);
        }
        Ok(v)
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.len() as u64);
        for item in self {
            item.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.len_prefix()?;
        let mut v = VecDeque::with_capacity(n);
        for _ in 0..n {
            v.push_back(T::load(r)?);
        }
        Ok(v)
    }
}

impl<T: Snap> Snap for Option<T> {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.save(w);
            }
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(r)?)),
            _ => Err(SnapError::Corrupt("option tag")),
        }
    }
}

impl<T: Snap> Snap for Box<T> {
    fn save(&self, w: &mut SnapWriter) {
        (**self).save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Box::new(T::load(r)?))
    }
}

impl<T: Snap> Snap for Arc<T> {
    fn save(&self, w: &mut SnapWriter) {
        (**self).save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Arc::new(T::load(r)?))
    }
}

/// A shared slice travels exactly like the `Vec` it was built from.
impl<T: Snap> Snap for Arc<[T]> {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.len() as u64);
        for item in self.iter() {
            item.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Vec::<T>::load(r).map(Arc::from)
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
        self.2.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::load(r)?, B::load(r)?, C::load(r)?))
    }
}

impl<const N: usize> Snap for [u64; N] {
    fn save(&self, w: &mut SnapWriter) {
        for v in self {
            w.u64(*v);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut out = [0u64; N];
        for slot in &mut out {
            *slot = r.u64()?;
        }
        Ok(out)
    }
}

/// `HashMap`s serialize **sorted by key** so the byte stream is a pure
/// function of the map's content, never of its iteration order.
impl<K: Snap + Ord + Clone + std::hash::Hash + Eq, V: Snap> Snap for HashMap<K, V> {
    fn save(&self, w: &mut SnapWriter) {
        let mut keys: Vec<&K> = self.keys().collect();
        keys.sort();
        w.u64(keys.len() as u64);
        for k in keys {
            k.save(w);
            self[k].save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.len_prefix()?;
        let mut m = HashMap::with_capacity(n);
        for _ in 0..n {
            let k = K::load(r)?;
            let v = V::load(r)?;
            if m.insert(k, v).is_some() {
                return Err(SnapError::Corrupt("duplicate map key"));
            }
        }
        Ok(m)
    }
}

/// Implement [`Snap`] for a struct by listing its fields in a fixed
/// order. Invoke from the struct's own module so private fields resolve.
#[macro_export]
macro_rules! snap_struct {
    ($ty:ty { $($field:ident),* $(,)? }) => {
        impl $crate::Snap for $ty {
            fn save(&self, w: &mut $crate::SnapWriter) {
                $( $crate::Snap::save(&self.$field, w); )*
            }
            fn load(r: &mut $crate::SnapReader<'_>) -> Result<Self, $crate::SnapError> {
                Ok(Self { $( $field: $crate::Snap::load(r)? ),* })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_round_trips() {
        let mut w = SnapWriter::new();
        w.u64(42);
        w.f64(-0.0);
        w.u128(u128::MAX);
        let bytes = w.finish();
        let mut r = SnapReader::open(&bytes).expect("valid envelope");
        assert_eq!(r.u64().unwrap(), 42);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.u128().unwrap(), u128::MAX);
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncation_at_every_offset_is_a_structured_error() {
        let mut w = SnapWriter::new();
        for i in 0..32u64 {
            w.u64(i);
        }
        let bytes = w.finish();
        for cut in 0..bytes.len() {
            let err =
                SnapReader::open(&bytes[..cut]).expect_err("truncated stream must not verify");
            assert!(
                matches!(
                    err,
                    SnapError::Truncated | SnapError::BadMagic | SnapError::BadVersion(_)
                ),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn corruption_fails_checksum() {
        let mut w = SnapWriter::new();
        w.u64(7);
        let mut bytes = w.finish();
        let mid = 16 + 3; // inside the payload
        bytes[mid] ^= 0x40;
        assert_eq!(SnapReader::open(&bytes).err(), Some(SnapError::BadChecksum));
    }

    #[test]
    fn bad_magic_and_version_are_detected() {
        let mut w = SnapWriter::new();
        w.u64(7);
        let mut bytes = w.finish();
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 0xEE;
        assert!(matches!(
            SnapReader::open(&wrong_version).err(),
            Some(SnapError::BadVersion(_))
        ));
        bytes[0] = b'X';
        assert_eq!(SnapReader::open(&bytes).err(), Some(SnapError::BadMagic));
    }

    #[test]
    fn maps_serialize_content_deterministically() {
        let mut a = HashMap::new();
        let mut b = HashMap::new();
        for i in 0..64u64 {
            a.insert(i, i * 3);
        }
        for i in (0..64u64).rev() {
            b.insert(i, i * 3);
        }
        let (mut wa, mut wb) = (SnapWriter::new(), SnapWriter::new());
        a.save(&mut wa);
        b.save(&mut wb);
        assert_eq!(wa.finish(), wb.finish());
    }

    #[test]
    fn collections_round_trip() {
        #[derive(Debug, PartialEq)]
        struct S {
            a: u32,
            b: Vec<f64>,
            c: Option<String>,
        }
        snap_struct!(S { a, b, c });
        let v = S {
            a: 9,
            b: vec![1.5, f64::NAN, -2.25],
            c: Some("hello".to_string()),
        };
        let mut w = SnapWriter::new();
        v.save(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::open(&bytes).unwrap();
        let back = S::load(&mut r).unwrap();
        assert_eq!(back.a, v.a);
        assert_eq!(back.b.len(), 3);
        assert_eq!(back.b[0], 1.5);
        assert!(back.b[1].is_nan());
        assert_eq!(back.c.as_deref(), Some("hello"));
        assert!(r.is_exhausted());
    }

    #[test]
    fn hostile_length_prefix_is_rejected() {
        let mut w = SnapWriter::new();
        w.u64(u64::MAX); // absurd Vec length
        let bytes = w.finish();
        let mut r = SnapReader::open(&bytes).unwrap();
        assert!(matches!(
            Vec::<u64>::load(&mut r),
            Err(SnapError::Corrupt(_))
        ));
    }
}
