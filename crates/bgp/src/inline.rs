//! A list that keeps its first `N` items in place and moves to the heap
//! only past that, so the short bounded lists of the UPDATE path and the
//! FIB's next-hop sets allocate nothing while they are short.

use std::mem;
use std::ops::{Deref, DerefMut};

/// Up to `N` items inline; at the `N + 1`-th push all of them move into a
/// `Vec` of capacity `2 * N`, which then grows as a `Vec` does.
pub(crate) struct InlineList<T, const N: usize> {
    inline: [T; N],
    len: usize,
    /// Every item once more than `N` were pushed, unallocated until then.
    heap: Vec<T>,
}

impl<T: Default, const N: usize> InlineList<T, N> {
    pub(crate) fn new() -> Self {
        InlineList { inline: std::array::from_fn(|_| T::default()), len: 0, heap: Vec::new() }
    }

    pub(crate) fn push(&mut self, item: T) {
        if self.len == N {
            self.heap = Vec::with_capacity(2 * N);
            self.heap.extend(self.inline.iter_mut().map(mem::take));
        }
        match self.inline.get_mut(self.len) {
            Some(slot) => *slot = item,
            None => self.heap.push(item),
        }
        self.len += 1;
    }
}

impl<T, const N: usize> Deref for InlineList<T, N> {
    type Target = [T];
    /// The inline items while they are all there (`len <= N`), else the heap.
    fn deref(&self) -> &[T] {
        self.inline.get(..self.len).unwrap_or(&self.heap)
    }
}

impl<T, const N: usize> DerefMut for InlineList<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.inline.get_mut(..self.len).unwrap_or(&mut self.heap)
    }
}

impl<T: Default, const N: usize> FromIterator<T> for InlineList<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut list = InlineList::new();
        iter.into_iter().for_each(|item| list.push(item));
        list
    }
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use super::*;

    fn pushed<const N: usize>(items: impl IntoIterator<Item = u16>) -> InlineList<u16, N> {
        let mut list = InlineList::new();
        for item in items {
            list.push(item);
        }
        list
    }

    #[test]
    fn stays_inline_up_to_capacity() {
        let list = pushed::<4>(0..4);
        assert_eq!(&list[..], &[0, 1, 2, 3]);
        assert_eq!(list.heap.capacity(), 0, "nothing on the heap");
    }

    #[test]
    fn spills_once_into_twice_the_capacity() {
        let list = pushed::<4>(0..5);
        assert_eq!(list.heap.capacity(), 8);
        let list = pushed::<4>(0..8);
        assert_eq!(list.heap.capacity(), 8, "no second allocation up to 2 * N");
    }

    #[test]
    fn spills_past_capacity_and_preserves_order() {
        let list = pushed::<2>(0..7);
        assert_eq!(&list[..], &[0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn drops_inline_elements() {
        let tracker = Rc::new(());
        for n in [2, 5] {
            let mut list: InlineList<Option<Rc<()>>, 4> = InlineList::new();
            for _ in 0..n {
                list.push(Some(tracker.clone()));
            }
            assert_eq!(Rc::strong_count(&tracker), 1 + n, "moved, not cloned, by the spill");
            drop(list);
            assert_eq!(Rc::strong_count(&tracker), 1, "every item dropped");
        }
    }

    #[test]
    fn sort_and_index_via_deref() {
        for n in [3, 9] {
            let mut list = pushed::<8>((0..n).rev());
            list.sort_by_key(|x| x % 3);
            let mut want: Vec<u16> = (0..n).rev().collect();
            want.sort_by_key(|x| x % 3);
            assert_eq!(&list[..], &want[..], "a stable sort in place");
        }
    }

    #[test]
    fn collect_equals_pushing_one_by_one() {
        for n in [0, 4, 5, 11] {
            let collected: InlineList<u16, 4> = (0..n).collect();
            let pushed = pushed::<4>(0..n);
            assert_eq!(&collected[..], &pushed[..]);
            assert_eq!(collected.heap.capacity(), pushed.heap.capacity());
        }
    }
}
