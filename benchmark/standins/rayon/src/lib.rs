//! Offline stand-in for the subset of `rayon` 1.x this repository uses.
//!
//! A parallel iterator here is a *producer*: it knows its length, splits at
//! an index, and turns into a sequential iterator. A terminal operation cuts
//! the producer into one contiguous part per thread (at most
//! [`current_num_threads`]), runs part 0 on the calling thread and the rest
//! on scoped threads, and joins them in order, so `collect` keeps input
//! order. A call made from inside a part runs sequentially: the stand-in
//! never has more busy threads than [`current_num_threads`].

use std::cell::Cell;
use std::ops::Range;
use std::sync::Arc;
use std::sync::OnceLock;

thread_local! {
    static WORKER_INDEX: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Index of the current thread among the workers of the running parallel
/// call, or `None` outside one.
pub fn current_thread_index() -> Option<usize> {
    WORKER_INDEX.with(Cell::get)
}

/// `RAYON_NUM_THREADS` when set to a positive number, else the number of
/// available cores.
pub fn current_num_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// Restores the caller's worker index when part 0 finishes or unwinds.
struct IndexGuard(Option<usize>);

impl IndexGuard {
    fn enter(index: usize) -> IndexGuard {
        IndexGuard(WORKER_INDEX.with(|w| w.replace(Some(index))))
    }
}

impl Drop for IndexGuard {
    fn drop(&mut self) {
        WORKER_INDEX.with(|w| w.set(self.0));
    }
}

/// Run `consume` over the producer's parts and return the results in order.
fn drive<P, R, C>(producer: P, consume: C) -> Vec<R>
where
    P: ParallelIterator,
    R: Send,
    C: Fn(P::Seq) -> R + Sync,
{
    let len = producer.len();
    let threads = if current_thread_index().is_some() {
        1
    } else {
        current_num_threads().min(len)
    };
    if threads <= 1 {
        return vec![consume(producer.into_seq())];
    }
    let mut parts = Vec::with_capacity(threads);
    let mut rest = producer;
    let mut remaining = len;
    for i in 0..threads - 1 {
        let take = remaining / (threads - i);
        let (head, tail) = rest.split_at(take);
        parts.push(head);
        rest = tail;
        remaining -= take;
    }
    parts.push(rest);

    let consume = &consume;
    std::thread::scope(|scope| {
        let mut parts = parts.into_iter().enumerate();
        let (_, first) = parts.next().expect("at least two parts");
        let handles: Vec<_> = parts
            .map(|(i, part)| {
                scope.spawn(move || {
                    let _g = IndexGuard::enter(i);
                    consume(part.into_seq())
                })
            })
            .collect();
        let head = {
            let _g = IndexGuard::enter(0);
            consume(first.into_seq())
        };
        let mut out = Vec::with_capacity(threads);
        out.push(head);
        for h in handles {
            match h.join() {
                Ok(r) => out.push(r),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

pub mod iter {
    use super::*;

    /// A splittable producer of `Item`s with the adapters and terminal
    /// operations the repository calls.
    pub trait ParallelIterator: Sized + Send {
        type Item: Send;
        type Seq: Iterator<Item = Self::Item>;

        /// Number of units this producer splits over.
        fn len(&self) -> usize;
        fn is_empty(&self) -> bool {
            self.len() == 0
        }
        fn split_at(self, mid: usize) -> (Self, Self);
        fn into_seq(self) -> Self::Seq;

        fn map<R, F>(self, f: F) -> Map<Self, F>
        where
            R: Send,
            F: Fn(Self::Item) -> R + Sync + Send,
        {
            Map {
                base: self,
                f: Arc::new(f),
            }
        }

        fn flat_map_iter<U, F>(self, f: F) -> FlatMapIter<Self, F>
        where
            U: IntoIterator,
            U::Item: Send,
            F: Fn(Self::Item) -> U + Sync + Send,
        {
            FlatMapIter {
                base: self,
                f: Arc::new(f),
            }
        }

        fn for_each<F>(self, f: F)
        where
            F: Fn(Self::Item) + Sync + Send,
        {
            drive(self, |seq| seq.for_each(&f));
        }

        fn collect<C>(self) -> C
        where
            C: FromIterator<Self::Item>,
        {
            drive(self, |seq| seq.collect::<Vec<_>>())
                .into_iter()
                .flatten()
                .collect()
        }

        fn sum<S>(self) -> S
        where
            S: Send + std::iter::Sum<Self::Item> + std::iter::Sum<S>,
        {
            drive(self, |seq| seq.sum::<S>()).into_iter().sum()
        }
    }

    /// Producers whose unit is exactly one item, so positions are known.
    pub trait IndexedParallelIterator: ParallelIterator {
        fn enumerate(self) -> Enumerate<Self> {
            Enumerate {
                base: self,
                offset: 0,
            }
        }
    }

    pub trait IntoParallelIterator {
        type Iter: ParallelIterator<Item = Self::Item>;
        type Item: Send;
        fn into_par_iter(self) -> Self::Iter;
    }

    impl<P: ParallelIterator> IntoParallelIterator for P {
        type Iter = P;
        type Item = P::Item;
        fn into_par_iter(self) -> P {
            self
        }
    }

    pub trait IntoParallelRefIterator<'a> {
        type Iter: ParallelIterator<Item = Self::Item>;
        type Item: Send + 'a;
        fn par_iter(&'a self) -> Self::Iter;
    }

    impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
        type Iter = SliceIter<'a, T>;
        type Item = &'a T;
        fn par_iter(&'a self) -> SliceIter<'a, T> {
            SliceIter { slice: self }
        }
    }

    impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
        type Iter = SliceIter<'a, T>;
        type Item = &'a T;
        fn par_iter(&'a self) -> SliceIter<'a, T> {
            SliceIter { slice: self }
        }
    }

    pub struct SliceIter<'a, T> {
        slice: &'a [T],
    }

    impl<'a, T: Sync> ParallelIterator for SliceIter<'a, T> {
        type Item = &'a T;
        type Seq = std::slice::Iter<'a, T>;
        fn len(&self) -> usize {
            self.slice.len()
        }
        fn split_at(self, mid: usize) -> (Self, Self) {
            let (a, b) = self.slice.split_at(mid);
            (SliceIter { slice: a }, SliceIter { slice: b })
        }
        fn into_seq(self) -> Self::Seq {
            self.slice.iter()
        }
    }
    impl<T: Sync> IndexedParallelIterator for SliceIter<'_, T> {}

    pub struct VecIter<T> {
        vec: Vec<T>,
    }

    impl<T: Send> IntoParallelIterator for Vec<T> {
        type Iter = VecIter<T>;
        type Item = T;
        fn into_par_iter(self) -> VecIter<T> {
            VecIter { vec: self }
        }
    }

    impl<T: Send> ParallelIterator for VecIter<T> {
        type Item = T;
        type Seq = std::vec::IntoIter<T>;
        fn len(&self) -> usize {
            self.vec.len()
        }
        fn split_at(mut self, mid: usize) -> (Self, Self) {
            let tail = self.vec.split_off(mid);
            (self, VecIter { vec: tail })
        }
        fn into_seq(self) -> Self::Seq {
            self.vec.into_iter()
        }
    }
    impl<T: Send> IndexedParallelIterator for VecIter<T> {}

    pub struct RangeIter<T> {
        range: Range<T>,
    }

    macro_rules! range_iter {
        ($($t:ty),*) => {$(
            impl IntoParallelIterator for Range<$t> {
                type Iter = RangeIter<$t>;
                type Item = $t;
                fn into_par_iter(self) -> RangeIter<$t> {
                    RangeIter { range: self }
                }
            }
            impl ParallelIterator for RangeIter<$t> {
                type Item = $t;
                type Seq = Range<$t>;
                fn len(&self) -> usize {
                    if self.range.end > self.range.start {
                        (self.range.end - self.range.start) as usize
                    } else {
                        0
                    }
                }
                fn split_at(self, mid: usize) -> (Self, Self) {
                    let m = self.range.start + mid as $t;
                    (
                        RangeIter { range: self.range.start..m },
                        RangeIter { range: m..self.range.end },
                    )
                }
                fn into_seq(self) -> Range<$t> {
                    self.range
                }
            }
            impl IndexedParallelIterator for RangeIter<$t> {}
        )*};
    }
    range_iter!(usize, u32, u64, i32, i64);

    pub struct Enumerate<I> {
        base: I,
        offset: usize,
    }

    impl<I: IndexedParallelIterator> ParallelIterator for Enumerate<I> {
        type Item = (usize, I::Item);
        type Seq = std::iter::Zip<std::ops::RangeFrom<usize>, I::Seq>;
        fn len(&self) -> usize {
            self.base.len()
        }
        fn split_at(self, mid: usize) -> (Self, Self) {
            let (a, b) = self.base.split_at(mid);
            (
                Enumerate {
                    base: a,
                    offset: self.offset,
                },
                Enumerate {
                    base: b,
                    offset: self.offset + mid,
                },
            )
        }
        fn into_seq(self) -> Self::Seq {
            (self.offset..).zip(self.base.into_seq())
        }
    }
    impl<I: IndexedParallelIterator> IndexedParallelIterator for Enumerate<I> {}

    pub struct Map<I, F> {
        base: I,
        f: Arc<F>,
    }

    pub struct MapSeq<S, F> {
        seq: S,
        f: Arc<F>,
    }

    impl<S: Iterator, R, F: Fn(S::Item) -> R> Iterator for MapSeq<S, F> {
        type Item = R;
        fn next(&mut self) -> Option<R> {
            self.seq.next().map(|x| (self.f)(x))
        }
        fn size_hint(&self) -> (usize, Option<usize>) {
            self.seq.size_hint()
        }
    }

    impl<I, R, F> ParallelIterator for Map<I, F>
    where
        I: ParallelIterator,
        R: Send,
        F: Fn(I::Item) -> R + Sync + Send,
    {
        type Item = R;
        type Seq = MapSeq<I::Seq, F>;
        fn len(&self) -> usize {
            self.base.len()
        }
        fn split_at(self, mid: usize) -> (Self, Self) {
            let (a, b) = self.base.split_at(mid);
            (
                Map {
                    base: a,
                    f: Arc::clone(&self.f),
                },
                Map { base: b, f: self.f },
            )
        }
        fn into_seq(self) -> Self::Seq {
            MapSeq {
                seq: self.base.into_seq(),
                f: self.f,
            }
        }
    }
    impl<I, R, F> IndexedParallelIterator for Map<I, F>
    where
        I: IndexedParallelIterator,
        R: Send,
        F: Fn(I::Item) -> R + Sync + Send,
    {
    }

    pub struct FlatMapIter<I, F> {
        base: I,
        f: Arc<F>,
    }

    pub struct FlatMapSeq<S, U: IntoIterator, F> {
        seq: S,
        f: Arc<F>,
        current: Option<U::IntoIter>,
    }

    impl<S: Iterator, U: IntoIterator, F: Fn(S::Item) -> U> Iterator for FlatMapSeq<S, U, F> {
        type Item = U::Item;
        fn next(&mut self) -> Option<U::Item> {
            loop {
                if let Some(item) = self.current.as_mut().and_then(Iterator::next) {
                    return Some(item);
                }
                self.current = Some((self.f)(self.seq.next()?).into_iter());
            }
        }
    }

    impl<I, U, F> ParallelIterator for FlatMapIter<I, F>
    where
        I: ParallelIterator,
        U: IntoIterator,
        U::Item: Send,
        F: Fn(I::Item) -> U + Sync + Send,
    {
        type Item = U::Item;
        type Seq = FlatMapSeq<I::Seq, U, F>;
        fn len(&self) -> usize {
            self.base.len()
        }
        fn split_at(self, mid: usize) -> (Self, Self) {
            let (a, b) = self.base.split_at(mid);
            (
                FlatMapIter {
                    base: a,
                    f: Arc::clone(&self.f),
                },
                FlatMapIter { base: b, f: self.f },
            )
        }
        fn into_seq(self) -> Self::Seq {
            FlatMapSeq {
                seq: self.base.into_seq(),
                f: self.f,
                current: None,
            }
        }
    }
}

pub mod slice {
    use super::iter::{IndexedParallelIterator, ParallelIterator};

    pub trait ParallelSlice<T: Sync> {
        fn as_parallel_slice(&self) -> &[T];

        fn par_chunks(&self, chunk_size: usize) -> Chunks<'_, T> {
            assert!(chunk_size != 0, "chunk_size must not be zero");
            Chunks {
                slice: self.as_parallel_slice(),
                size: chunk_size,
            }
        }
    }

    impl<T: Sync> ParallelSlice<T> for [T] {
        fn as_parallel_slice(&self) -> &[T] {
            self
        }
    }

    pub trait ParallelSliceMut<T: Send> {
        fn as_parallel_slice_mut(&mut self) -> &mut [T];

        fn par_chunks_mut(&mut self, chunk_size: usize) -> ChunksMut<'_, T> {
            assert!(chunk_size != 0, "chunk_size must not be zero");
            ChunksMut {
                slice: self.as_parallel_slice_mut(),
                size: chunk_size,
            }
        }
    }

    impl<T: Send> ParallelSliceMut<T> for [T] {
        fn as_parallel_slice_mut(&mut self) -> &mut [T] {
            self
        }
    }

    pub struct Chunks<'a, T> {
        slice: &'a [T],
        size: usize,
    }

    impl<'a, T: Sync> ParallelIterator for Chunks<'a, T> {
        type Item = &'a [T];
        type Seq = std::slice::Chunks<'a, T>;
        fn len(&self) -> usize {
            self.slice.len().div_ceil(self.size)
        }
        fn split_at(self, mid: usize) -> (Self, Self) {
            let at = (mid * self.size).min(self.slice.len());
            let (a, b) = self.slice.split_at(at);
            (
                Chunks {
                    slice: a,
                    size: self.size,
                },
                Chunks {
                    slice: b,
                    size: self.size,
                },
            )
        }
        fn into_seq(self) -> Self::Seq {
            self.slice.chunks(self.size)
        }
    }
    impl<T: Sync> IndexedParallelIterator for Chunks<'_, T> {}

    pub struct ChunksMut<'a, T> {
        slice: &'a mut [T],
        size: usize,
    }

    impl<'a, T: Send> ParallelIterator for ChunksMut<'a, T> {
        type Item = &'a mut [T];
        type Seq = std::slice::ChunksMut<'a, T>;
        fn len(&self) -> usize {
            self.slice.len().div_ceil(self.size)
        }
        fn split_at(self, mid: usize) -> (Self, Self) {
            let at = (mid * self.size).min(self.slice.len());
            let (a, b) = self.slice.split_at_mut(at);
            (
                ChunksMut {
                    slice: a,
                    size: self.size,
                },
                ChunksMut {
                    slice: b,
                    size: self.size,
                },
            )
        }
        fn into_seq(self) -> Self::Seq {
            self.slice.chunks_mut(self.size)
        }
    }
    impl<T: Send> IndexedParallelIterator for ChunksMut<'_, T> {}
}

pub use iter::ParallelIterator;

pub mod prelude {
    pub use super::iter::{
        IndexedParallelIterator, IntoParallelIterator, IntoParallelRefIterator, ParallelIterator,
    };
    pub use super::slice::{ParallelSlice, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn collect_keeps_order_and_enumerate_offsets_survive_splits() {
        let v: Vec<usize> = (0..1001usize).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v, (0..1001).map(|i| i * 2).collect::<Vec<_>>());
        let data: Vec<u32> = (0..97).collect();
        let pairs: Vec<(usize, u32)> = data.par_iter().enumerate().map(|(i, x)| (i, *x)).collect();
        assert!(pairs.iter().all(|&(i, x)| i as u32 == x));
    }

    #[test]
    fn chunks_cover_every_element_once() {
        let mut m = vec![0u64; 10 * 7 + 3];
        m.par_chunks_mut(7).enumerate().for_each(|(i, row)| {
            for r in row.iter_mut() {
                *r += i as u64 + 1;
            }
        });
        for (k, x) in m.iter().enumerate() {
            assert_eq!(*x, (k / 7) as u64 + 1);
        }
        let flat: Vec<u64> = m
            .par_chunks(5)
            .flat_map_iter(|c| c.iter().map(|x| x * 2))
            .collect();
        assert_eq!(flat, m.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn workers_see_an_index_and_nested_calls_stay_on_their_thread() {
        assert!(current_thread_index().is_none());
        let seen: Vec<(bool, bool)> = (0..64usize)
            .into_par_iter()
            .map(|_| {
                let outer = std::thread::current().id();
                let inner: Vec<bool> = (0..8usize)
                    .into_par_iter()
                    .map(|_| std::thread::current().id() == outer)
                    .collect();
                (
                    current_thread_index().is_some(),
                    inner.iter().all(|&same| same),
                )
            })
            .collect();
        assert!(seen
            .iter()
            .all(|&(indexed, nested_inline)| indexed && nested_inline));
        assert!(current_thread_index().is_none());
    }
}
