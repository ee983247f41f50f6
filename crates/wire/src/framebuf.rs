//! Owned frame payloads, shared by reference count within one thread.
//!
//! Every frame that crosses the emulated wire used to be an owned
//! `Vec<u8>`, copied once per hop and once per fan-out port. [`FrameBuf`]
//! wraps the encoded bytes in an `Rc<[u8]>` so retransmitting a tracked
//! control message or re-sending a cached keepalive is a (non-atomic)
//! reference-count bump instead of a byte copy.
//!
//! A frame is a value: the engine hands the one handle of a delivered
//! frame to its receiver, which may forward it as it is or rewrite it
//! with [`FrameBuf::rewrite`]. That patches the bytes in place when the
//! handle is the only one and copies them first when it is not, so a
//! sharer — a retransmission queue, a hello or BFD frame cache — never
//! observes the change. A simulation never leaves the thread that built
//! it, which is what lets the count be an `Rc` (DESIGN.md §17).

use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

/// A frame payload: cheap to clone, rewritten in place when unshared.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct FrameBuf {
    bytes: Rc<[u8]>,
}

impl FrameBuf {
    /// Wrap already-encoded bytes: a second allocation and a copy (`Vec<u8>`
    /// → `Rc<[u8]>`) on top of whatever built the `Vec`. For tests and
    /// one-off callers; data and control frames alike are written in place
    /// with [`FrameBuf::build`].
    pub fn new(bytes: Vec<u8>) -> FrameBuf {
        FrameBuf { bytes: bytes.into() }
    }

    /// Build a `len`-byte frame in place: one refcounted allocation,
    /// zero-filled, which `fill` writes (with the layers' `put_header`s).
    /// No `Vec` per layer, no copy per layer.
    pub fn build(len: usize, fill: impl FnOnce(&mut [u8])) -> FrameBuf {
        let mut bytes: Rc<[u8]> = std::iter::repeat_n(0u8, len).collect();
        fill(Rc::get_mut(&mut bytes).expect("fresh Rc is unique"));
        FrameBuf { bytes }
    }

    /// The empty buffer (pure ACKs, SYN placeholders): every call on one
    /// thread returns a handle to that thread's one allocation.
    pub fn empty() -> FrameBuf {
        thread_local! {
            static EMPTY: FrameBuf = FrameBuf::new(Vec::new());
        }
        EMPTY.with(FrameBuf::clone)
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

    /// Let `patch` rewrite the bytes — in place when this is the only
    /// handle, in a fresh copy (one allocation, one copy) when another
    /// handle shares them, which then keeps the old bytes. The per-hop
    /// primitive of TTL-rewriting forwarders and of in-flight corruption.
    pub fn rewrite(mut self, patch: impl FnOnce(&mut [u8])) -> FrameBuf {
        if Rc::get_mut(&mut self.bytes).is_none() {
            self.bytes = Rc::from(&*self.bytes);
        }
        patch(Rc::get_mut(&mut self.bytes).expect("unique, or a fresh copy"));
        self
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
        // Render as the byte slice: the `Rc` is representation, not
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
        assert_eq!(a.as_ptr(), b.as_ptr());
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
    fn empty_is_one_buffer_per_thread() {
        assert_eq!(FrameBuf::empty().as_ptr(), FrameBuf::empty().as_ptr());
        assert!(FrameBuf::empty().is_empty());
    }

    #[test]
    fn a_unique_handle_is_rewritten_in_place() {
        let a = FrameBuf::new(vec![0x77; 4]);
        let at = a.as_ptr();
        let b = a.rewrite(|bytes| bytes[2] ^= 0x01);
        assert_eq!(b.as_ptr(), at, "no copy for the only handle");
        assert_eq!(b.as_slice(), &[0x77, 0x77, 0x76, 0x77]);
    }

    #[test]
    fn a_shared_handle_is_copied_and_the_sharer_keeps_its_bytes() {
        let a = FrameBuf::new(vec![0x77; 4]);
        let b = a.clone().rewrite(|bytes| bytes[2] ^= 0x01);
        assert_ne!(a.as_ptr(), b.as_ptr());
        assert_eq!(a.as_slice(), &[0x77; 4], "original untouched");
        assert_eq!(b.as_slice(), &[0x77, 0x77, 0x76, 0x77]);
        // The copy is unique in turn: a second rewrite stays in place.
        let at = b.as_ptr();
        assert_eq!(b.rewrite(|bytes| bytes[0] = 0).as_ptr(), at);
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
        assert_ne!(v.as_ptr(), s.as_ptr());
    }
}
