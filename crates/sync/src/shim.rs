//! Passthrough personality: zero-cost wrappers over `std` primitives.
//!
//! Compiled when `cachedse_model` is *not* set. Every method is
//! `#[inline]` and delegates directly; the only semantic addition is the
//! panic-on-poison policy documented on the crate root.

use std::sync::PoisonError;

const POISONED: &str = "cachedse-sync: lock poisoned (a thread panicked while holding it)";

/// A mutual-exclusion lock; see [`std::sync::Mutex`].
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// RAII guard returned by [`Mutex::lock`]; see [`std::sync::MutexGuard`].
#[derive(Debug)]
pub struct MutexGuard<'a, T: ?Sized> {
    inner: std::sync::MutexGuard<'a, T>,
}

impl<T> Mutex<T> {
    /// Creates a new unlocked mutex holding `value`.
    #[inline]
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the value.
    ///
    /// # Panics
    ///
    /// Panics if the mutex was poisoned.
    #[inline]
    pub fn into_inner(self) -> T {
        self.inner.into_inner().expect(POISONED)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until it is free.
    ///
    /// # Panics
    ///
    /// Panics if another thread panicked while holding this lock.
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: self.inner.lock().expect(POISONED),
        }
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A condition variable; see [`std::sync::Condvar`].
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Creates a new condition variable.
    #[inline]
    #[must_use]
    pub const fn new() -> Self {
        Self {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Atomically releases `guard` and blocks until notified, then
    /// reacquires the lock. Spurious wakeups are possible — always wait in
    /// a loop re-checking the predicate.
    ///
    /// # Panics
    ///
    /// Panics if the associated mutex was poisoned while waiting.
    #[inline]
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        MutexGuard {
            inner: self.inner.wait(guard.inner).expect(POISONED),
        }
    }

    /// Wakes one waiter, if any.
    #[inline]
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes every waiter.
    #[inline]
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

/// A plain shared cell instrumented for model-mode race detection.
///
/// In normal builds this is a mutex-protected value (uncontended in
/// correct programs, so effectively free); in model builds every `get`/
/// `set` is checked against the vector-clock happens-before relation and
/// an unordered pair of accesses (at least one a write) is reported as a
/// data race. Use it in model harnesses to stand in for non-atomic shared
/// state — e.g. the deliberately racy counter the fault-injection tests
/// prove the detector catches.
#[derive(Debug, Default)]
pub struct RaceCell<T> {
    inner: std::sync::Mutex<T>,
}

impl<T: Copy> RaceCell<T> {
    /// Creates a cell holding `value`.
    #[inline]
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Reads the current value.
    #[inline]
    pub fn get(&self) -> T {
        *self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Replaces the value.
    #[inline]
    pub fn set(&self, value: T) {
        *self.inner.lock().unwrap_or_else(PoisonError::into_inner) = value;
    }
}

/// Shimmed atomics; see [`std::sync::atomic`].
pub mod atomic {
    pub use std::sync::atomic::Ordering;

    macro_rules! passthrough_atomic {
        ($(#[$doc:meta])* $name:ident, $std:ty, $prim:ty) => {
            $(#[$doc])*
            #[derive(Debug, Default)]
            pub struct $name {
                inner: $std,
            }

            impl $name {
                /// Creates a new atomic holding `value`.
                #[inline]
                #[must_use]
                pub const fn new(value: $prim) -> Self {
                    Self { inner: <$std>::new(value) }
                }

                /// Atomic load.
                #[inline]
                pub fn load(&self, order: Ordering) -> $prim {
                    self.inner.load(order)
                }

                /// Atomic store.
                #[inline]
                pub fn store(&self, value: $prim, order: Ordering) {
                    self.inner.store(value, order);
                }

                /// Atomic swap, returning the previous value.
                #[inline]
                pub fn swap(&self, value: $prim, order: Ordering) -> $prim {
                    self.inner.swap(value, order)
                }
            }
        };
    }

    passthrough_atomic!(
        /// Shimmed [`std::sync::atomic::AtomicBool`].
        AtomicBool,
        std::sync::atomic::AtomicBool,
        bool
    );
    passthrough_atomic!(
        /// Shimmed [`std::sync::atomic::AtomicU64`].
        AtomicU64,
        std::sync::atomic::AtomicU64,
        u64
    );

    impl AtomicU64 {
        /// Atomic add, returning the previous value.
        #[inline]
        pub fn fetch_add(&self, value: u64, order: Ordering) -> u64 {
            self.inner.fetch_add(value, order)
        }
    }
}

/// Shimmed thread spawn/join and scoped threads; see [`std::thread`].
pub mod thread {
    /// Handle to a spawned thread; see [`std::thread::JoinHandle`].
    #[derive(Debug)]
    pub struct JoinHandle<T> {
        inner: std::thread::JoinHandle<T>,
    }

    impl<T> JoinHandle<T> {
        /// Waits for the thread to finish, returning its result (`Err` if
        /// it panicked).
        ///
        /// # Errors
        ///
        /// Returns the thread's panic payload if it panicked.
        #[inline]
        pub fn join(self) -> std::thread::Result<T> {
            self.inner.join()
        }
    }

    /// Spawns a new thread; see [`std::thread::spawn`].
    #[inline]
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        JoinHandle {
            inner: std::thread::spawn(f),
        }
    }

    /// A scope for spawning borrowing threads; see [`std::thread::Scope`].
    #[derive(Debug)]
    pub struct Scope<'scope, 'env> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    /// Handle to a scoped thread; see [`std::thread::ScopedJoinHandle`].
    #[derive(Debug)]
    pub struct ScopedJoinHandle<'scope, T> {
        inner: std::thread::ScopedJoinHandle<'scope, T>,
    }

    impl<T> ScopedJoinHandle<'_, T> {
        /// Waits for the scoped thread to finish, returning its result.
        ///
        /// # Errors
        ///
        /// Returns the thread's panic payload if it panicked.
        #[inline]
        pub fn join(self) -> std::thread::Result<T> {
            self.inner.join()
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawns a scoped thread; see [`std::thread::Scope::spawn`].
        #[inline]
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce() -> T + Send + 'scope,
            T: Send + 'scope,
        {
            ScopedJoinHandle {
                inner: self.inner.spawn(f),
            }
        }
    }

    /// Creates a thread scope; see [`std::thread::scope`]. Threads spawned
    /// on the scope are implicitly joined before this returns.
    #[inline]
    pub fn scope<'env, F, T>(f: F) -> T
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> T,
    {
        std::thread::scope(|s| f(&Scope { inner: s }))
    }

    /// Puts the current thread to sleep; see [`std::thread::sleep`]. In
    /// model builds this is a plain schedule point (no time passes).
    #[inline]
    pub fn sleep(duration: std::time::Duration) {
        std::thread::sleep(duration);
    }

    /// Yields the current thread; see [`std::thread::yield_now`].
    #[inline]
    pub fn yield_now() {
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::atomic::{AtomicBool, AtomicU64, Ordering};
    use super::{thread, Condvar, Mutex, RaceCell};
    use std::sync::Arc;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(41);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn condvar_handoff() {
        let shared = Arc::new((Mutex::new(false), Condvar::new()));
        let peer = Arc::clone(&shared);
        let handle = thread::spawn(move || {
            let (flag, cv) = &*peer;
            *flag.lock() = true;
            cv.notify_one();
        });
        let (flag, cv) = &*shared;
        let mut ready = flag.lock();
        while !*ready {
            ready = cv.wait(ready);
        }
        assert!(*ready);
        handle.join().expect("peer does not panic");
    }

    #[test]
    fn atomics_behave_like_std() {
        let b = AtomicBool::new(false);
        b.store(true, Ordering::Release);
        assert!(b.load(Ordering::Acquire));
        assert!(b.swap(false, Ordering::AcqRel));

        let n = AtomicU64::new(5);
        assert_eq!(n.fetch_add(3, Ordering::Relaxed), 5);
        assert_eq!(n.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn scoped_threads_sum() {
        let data = [1u64, 2, 3, 4];
        let total: u64 = thread::scope(|s| {
            let handles: Vec<_> = data
                .chunks(2)
                .map(|chunk| s.spawn(move || chunk.iter().sum::<u64>()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("no panic"))
                .sum()
        });
        assert_eq!(total, 10);
    }

    #[test]
    fn race_cell_is_a_plain_cell_here() {
        let cell = RaceCell::new(7u32);
        cell.set(cell.get() + 1);
        assert_eq!(cell.get(), 8);
    }
}
