//! Reference-counted frame payloads.
//!
//! Every frame that crosses the emulated wire used to be an owned
//! `Vec<u8>`, copied once per hop and once per fan-out port. [`FrameBuf`]
//! wraps the encoded bytes in an `Arc<[u8]>` so forwarding a data frame,
//! retransmitting a tracked control message, or re-sending a cached
//! keepalive is a reference-count bump instead of a byte copy.
//!
//! The buffer is immutable by construction; the one mutation the emulator
//! performs in flight — impairment byte corruption — goes through
//! [`FrameBuf::with_corrupted_byte`], which copies on write so sibling
//! references (e.g. a retransmission queue holding the same bytes) never
//! observe the corruption.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, cheaply clonable frame payload.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct FrameBuf {
    bytes: Arc<[u8]>,
}

impl FrameBuf {
    /// Wrap already-encoded bytes: a second allocation and a copy (`Vec<u8>`
    /// → `Arc<[u8]>`) on top of whatever built the `Vec`. For tests and
    /// one-off callers; data and control frames alike are written in place
    /// with [`FrameBuf::build`].
    pub fn new(bytes: Vec<u8>) -> FrameBuf {
        FrameBuf { bytes: bytes.into() }
    }

    /// Build a `len`-byte frame in place: one refcounted allocation,
    /// zero-filled, which `fill` writes (with the layers' `put_header`s)
    /// before the buffer is frozen. No `Vec` per layer, no copy per layer.
    pub fn build(len: usize, fill: impl FnOnce(&mut [u8])) -> FrameBuf {
        let mut bytes: Arc<[u8]> = std::iter::repeat_n(0u8, len).collect();
        fill(Arc::get_mut(&mut bytes).expect("fresh Arc is unique"));
        FrameBuf { bytes }
    }

    /// The shared empty buffer (pure ACKs, SYN placeholders): every call
    /// returns a handle to one process-wide allocation.
    pub fn empty() -> FrameBuf {
        static EMPTY: std::sync::OnceLock<FrameBuf> = std::sync::OnceLock::new();
        EMPTY.get_or_init(|| FrameBuf::new(Vec::new())).clone()
    }

    /// The payload length in bytes (before any wire padding).
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.bytes
    }

    /// Do `self` and `other` share the same underlying allocation?
    /// Frame caches use this to detect that an upstream layer handed back
    /// the identical buffer and skip re-encapsulation entirely.
    pub fn ptr_eq(&self, other: &FrameBuf) -> bool {
        Arc::ptr_eq(&self.bytes, &other.bytes)
    }

    /// Copy-on-write corruption: returns a buffer identical to `self`
    /// except `bytes[idx] ^= xor`. Sharers of the original are unaffected.
    /// `xor` must be nonzero and `idx` in range for a real change.
    pub fn with_corrupted_byte(&self, idx: usize, xor: u8) -> FrameBuf {
        self.mutate_copy(|bytes| bytes[idx] ^= xor)
    }

    /// Copy-and-patch: duplicate the bytes into a fresh buffer — one
    /// allocation, one copy — and let `patch` rewrite them in place
    /// before the buffer is frozen: [`FrameBuf::build`] for a frame that
    /// already exists, the per-hop primitive of TTL-rewriting forwarders.
    pub fn mutate_copy(&self, patch: impl FnOnce(&mut [u8])) -> FrameBuf {
        let mut bytes: Arc<[u8]> = Arc::from(&*self.bytes);
        // A freshly constructed Arc is uniquely owned.
        patch(Arc::get_mut(&mut bytes).expect("fresh Arc is unique"));
        FrameBuf { bytes }
    }
}

impl Deref for FrameBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes
    }
}

impl AsRef<[u8]> for FrameBuf {
    fn as_ref(&self) -> &[u8] {
        &self.bytes
    }
}

impl From<Vec<u8>> for FrameBuf {
    fn from(bytes: Vec<u8>) -> FrameBuf {
        FrameBuf::new(bytes)
    }
}

impl From<&[u8]> for FrameBuf {
    fn from(bytes: &[u8]) -> FrameBuf {
        FrameBuf { bytes: bytes.into() }
    }
}

impl fmt::Debug for FrameBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Render as the byte slice: the `Arc` is representation, not
        // content (test failure output and `{:?}` of captured frames).
        fmt::Debug::fmt(&self.bytes[..], f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_allocation() {
        let a = FrameBuf::new(vec![1, 2, 3]);
        let b = a.clone();
        assert!(a.ptr_eq(&b));
        assert_eq!(&*a, &[1, 2, 3]);
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
    }

    #[test]
    fn build_writes_in_place_over_zeroes() {
        let a = FrameBuf::build(4, |b| b[1..3].copy_from_slice(&[7, 8]));
        assert_eq!(a.as_slice(), &[0, 7, 8, 0]);
        assert!(FrameBuf::build(0, |b| assert!(b.is_empty())).is_empty());
    }

    #[test]
    fn corruption_copies_on_write() {
        let a = FrameBuf::new(vec![0x77; 4]);
        let b = a.with_corrupted_byte(2, 0x01);
        assert!(!a.ptr_eq(&b));
        assert_eq!(a.as_slice(), &[0x77; 4], "original untouched");
        assert_eq!(b.as_slice(), &[0x77, 0x77, 0x76, 0x77]);
    }

    #[test]
    fn debug_matches_slice_rendering() {
        let a = FrameBuf::new(vec![9, 8]);
        assert_eq!(format!("{a:?}"), format!("{:?}", [9u8, 8]));
    }

    #[test]
    fn conversions_from_vec_and_slice() {
        let v: FrameBuf = vec![5u8, 6].into();
        let s: FrameBuf = (&[5u8, 6][..]).into();
        assert_eq!(v, s, "content equality ignores allocation identity");
        assert!(!v.ptr_eq(&s));
    }
}
