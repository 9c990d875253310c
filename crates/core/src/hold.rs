//! One handle, two ways to hold the queue (DESIGN.md §10).

use std::ops::Deref;
use std::sync::Arc;

mod sealed {
    pub trait Sealed {}
}

/// How a per-thread handle holds its queue `Q`: borrowed (`&'q Q`, what
/// `register()` hands out — the handle stays inside the borrow's scope) or
/// shared (`Arc<Q>`, what `register_owned()` hands out — the handle keeps
/// the queue alive and moves into `std::thread::spawn` closures and
/// `'static` futures). [`crate::WcqHandle`], [`crate::ShardedHandle`] and
/// [`crate::UnboundedHandle`] are each one struct over either.
///
/// Sealed to exactly these two holders. A handle's whole contract is "one
/// exclusive driver of one thread record of *this* queue", so the holder
/// must dereference to the same queue, at the same address, for the
/// handle's entire life — even as the handle itself moves between threads
/// (the unbounded handle's hazard pointers borrow from the queue behind the
/// holder). Both holders guarantee that; an arbitrary `Deref` need not.
pub trait Hold<Q>: Deref<Target = Q> + sealed::Sealed {}

impl<Q> sealed::Sealed for &Q {}
impl<Q> Hold<Q> for &Q {}
impl<Q> sealed::Sealed for Arc<Q> {}
impl<Q> Hold<Q> for Arc<Q> {}
