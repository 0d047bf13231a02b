//! Model personality: compiled under `--cfg cachedse_model`.
//!
//! Every type pairs the real `std` primitive (so values and guard
//! lifetimes behave identically to the passthrough personality) with a
//! lazily registered model object id. Threads spawned through the shim
//! inside an active exploration are *attached* (they have a modeled tid)
//! and route every operation through [`crate::model::rt`] before touching
//! the real primitive; unattached threads fall back to pure passthrough,
//! so ordinary test harness code keeps working in model builds.
//!
//! The load-bearing invariant: an attached thread takes a **real** lock
//! only after the scheduler granted it the **model** lock, and contenders
//! block in the scheduler (parked on their token), never on the real
//! mutex. The real primitives are therefore always uncontended among
//! attached threads, which is what lets the cooperative scheduler park a
//! thread at any schedule point without OS-level deadlock.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicU64 as IdCell;

use crate::model::rt;
use crate::model::rt::{ObjKind, Tid};

/// The calling thread's modeled tid, or `None` when the thread is
/// unattached **or currently panicking**. During an unwind every shim
/// operation degrades to plain passthrough: a schedule point would raise
/// a second panic (the session is being cancelled), and a panic escaping
/// a destructor that runs during unwinding aborts the process. The panic
/// hook records the violation and cancels the session *at panic time*,
/// before any destructor runs — so by the time an unwinding destructor
/// performs a passthrough operation, every parked thread is waking,
/// aborting, and releasing its real locks.
fn me() -> Option<Tid> {
    if std::thread::panicking() {
        None
    } else {
        rt::attached()
    }
}

/// A mutual-exclusion lock; model-checked flavor of [`std::sync::Mutex`].
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    id: IdCell,
    inner: std::sync::Mutex<T>,
}

/// RAII guard returned by [`Mutex::lock`].
#[derive(Debug)]
pub struct MutexGuard<'a, T: ?Sized> {
    me: Option<Tid>,
    lock: &'a Mutex<T>,
    raw: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Creates a new unlocked mutex holding `value`.
    #[inline]
    pub const fn new(value: T) -> Self {
        Self {
            id: IdCell::new(0),
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the value. Poison is recovered: in
    /// the model personality a panicking thread is itself a reported
    /// violation, and an aborted execution's cancellation unwinds must
    /// not cascade into double panics over poisoned state.
    #[inline]
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock. For attached threads this is a schedule point
    /// and the acquisition order is whatever the explorer chose. Poison
    /// is recovered (the model reports the panic itself as a violation;
    /// cancellation unwinds relock poisoned mutexes via passthrough).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let me = me();
        if let Some(tid) = me {
            let id = rt::obj_id(&self.id, ObjKind::Mutex);
            rt::mutex_lock(tid, id);
        }
        MutexGuard {
            me,
            lock: self,
            raw: Some(
                self.inner
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
            ),
        }
    }

    /// Fault-injection hook for model harness tests: model-releases the
    /// lock *without* consuming a guard. On a mutex the caller does not
    /// own this immediately raises a `SyncMisuse` violation; on an owned
    /// mutex the subsequent guard drop becomes the misuse. No-op for
    /// unattached threads.
    #[doc(hidden)]
    pub fn force_unlock(&self) {
        if let Some(tid) = me() {
            let id = rt::obj_id(&self.id, ObjKind::Mutex);
            rt::mutex_unlock(tid, id);
        }
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        self.raw.as_ref().expect("guard holds the lock")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        self.raw.as_mut().expect("guard holds the lock")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Model-release BEFORE the real guard drops: any thread the
        // scheduler runs in between model-blocks (the lock is still
        // model-owned) and never touches the real mutex. Skipped while
        // unwinding — a schedule point could raise a second panic, and
        // the execution is being cancelled anyway.
        if let Some(tid) = self.me {
            if !std::thread::panicking() {
                let id = rt::obj_id(&self.lock.id, ObjKind::Mutex);
                rt::mutex_unlock(tid, id);
            }
        }
    }
}

/// A condition variable; model-checked flavor of [`std::sync::Condvar`].
#[derive(Debug, Default)]
pub struct Condvar {
    id: IdCell,
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Creates a new condition variable.
    #[inline]
    #[must_use]
    pub const fn new() -> Self {
        Self {
            id: IdCell::new(0),
            inner: std::sync::Condvar::new(),
        }
    }

    /// Atomically releases `guard` and blocks until notified, then
    /// reacquires the lock. The model generates no spurious wakeups, but
    /// callers must still wait in a predicate loop — real builds do.
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let Some(me) = guard.me else {
            let raw = guard.raw.take().expect("guard holds the lock");
            let lock = guard.lock;
            drop(guard);
            return MutexGuard {
                me: None,
                lock,
                raw: Some(
                    self.inner
                        .wait(raw)
                        .unwrap_or_else(std::sync::PoisonError::into_inner),
                ),
            };
        };
        let mid = rt::obj_id(&guard.lock.id, ObjKind::Mutex);
        let cid = rt::obj_id(&self.id, ObjKind::Cond);
        // Three-phase wait: (1) validate + model-release + enqueue while
        // still holding the real guard (no handoff), (2) drop the real
        // guard with the guard's own model-unlock neutralised, (3) park
        // until notified, then reacquire through the normal lock path.
        rt::cond_wait_prepare(me, cid, mid);
        let lock = guard.lock;
        guard.me = None;
        drop(guard.raw.take());
        drop(guard);
        rt::cond_block(me);
        lock.lock()
    }

    /// Wakes the longest-waiting waiter, if any. A notify with no
    /// waiters is a no-op — the raw material of lost wakeups.
    pub fn notify_one(&self) {
        if let Some(me) = me() {
            let cid = rt::obj_id(&self.id, ObjKind::Cond);
            rt::cond_notify(me, cid, false);
        }
        self.inner.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        if let Some(me) = me() {
            let cid = rt::obj_id(&self.id, ObjKind::Cond);
            rt::cond_notify(me, cid, true);
        }
        self.inner.notify_all();
    }
}

/// A plain shared cell instrumented for race detection: every access is
/// a schedule point checked against the vector-clock happens-before
/// relation; unordered conflicting accesses raise a `DataRace`
/// violation. See the passthrough personality for the normal-build
/// behavior.
#[derive(Debug, Default)]
pub struct RaceCell<T> {
    id: IdCell,
    inner: std::sync::Mutex<T>,
}

impl<T: Copy> RaceCell<T> {
    /// Creates a cell holding `value`.
    #[inline]
    pub const fn new(value: T) -> Self {
        Self {
            id: IdCell::new(0),
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Reads the current value (a checked model read).
    pub fn get(&self) -> T {
        if let Some(me) = me() {
            let id = rt::obj_id(&self.id, ObjKind::Cell);
            rt::cell_access(me, id, false);
        }
        *self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Replaces the value (a checked model write).
    pub fn set(&self, value: T) {
        if let Some(me) = me() {
            let id = rt::obj_id(&self.id, ObjKind::Cell);
            rt::cell_access(me, id, true);
        }
        *self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = value;
    }
}

/// Shimmed atomics: real `std` atomics whose every operation is a
/// schedule point contributing the happens-before edges its ordering
/// implies (`Relaxed` contributes none — the race detector treats
/// relaxed accesses as unordered).
pub mod atomic {
    pub use std::sync::atomic::Ordering;

    use super::rt;
    use super::rt::ObjKind;
    use super::IdCell;

    fn acq(order: Ordering) -> bool {
        matches!(
            order,
            Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst
        )
    }

    fn rel(order: Ordering) -> bool {
        matches!(
            order,
            Ordering::Release | Ordering::AcqRel | Ordering::SeqCst
        )
    }

    macro_rules! modeled_atomic {
        ($(#[$doc:meta])* $name:ident, $std:ty, $prim:ty) => {
            $(#[$doc])*
            #[derive(Debug, Default)]
            pub struct $name {
                id: IdCell,
                inner: $std,
            }

            impl $name {
                /// Creates a new atomic holding `value`.
                #[inline]
                #[must_use]
                pub const fn new(value: $prim) -> Self {
                    Self { id: IdCell::new(0), inner: <$std>::new(value) }
                }

                fn access(&self, acquire: bool, release: bool, label: &str) {
                    if let Some(me) = super::me() {
                        let id = rt::obj_id(&self.id, ObjKind::Atomic);
                        rt::atomic_access(me, id, acquire, release, label);
                    }
                }

                /// Atomic load.
                pub fn load(&self, order: Ordering) -> $prim {
                    self.access(acq(order), false, "atomic-load");
                    self.inner.load(order)
                }

                /// Atomic store.
                pub fn store(&self, value: $prim, order: Ordering) {
                    self.access(false, rel(order), "atomic-store");
                    self.inner.store(value, order);
                }

                /// Atomic swap, returning the previous value.
                pub fn swap(&self, value: $prim, order: Ordering) -> $prim {
                    self.access(acq(order), rel(order), "atomic-swap");
                    self.inner.swap(value, order)
                }
            }
        };
    }

    modeled_atomic!(
        /// Model-checked [`std::sync::atomic::AtomicBool`].
        AtomicBool,
        std::sync::atomic::AtomicBool,
        bool
    );
    modeled_atomic!(
        /// Model-checked [`std::sync::atomic::AtomicU64`].
        AtomicU64,
        std::sync::atomic::AtomicU64,
        u64
    );

    impl AtomicU64 {
        /// Atomic add, returning the previous value.
        pub fn fetch_add(&self, value: u64, order: Ordering) -> u64 {
            self.access(acq(order), rel(order), "atomic-fetch-add");
            self.inner.fetch_add(value, order)
        }
    }
}

/// Shimmed thread spawn/join and scoped threads. Threads spawned by an
/// attached thread become modeled threads scheduled by the explorer;
/// threads spawned outside a session pass straight through to `std`.
pub mod thread {
    use super::{catch_unwind, me, rt, AssertUnwindSafe};

    /// Handle to a spawned thread.
    #[derive(Debug)]
    pub struct JoinHandle<T> {
        inner: std::thread::JoinHandle<T>,
        tid: Option<rt::Tid>,
    }

    impl<T> JoinHandle<T> {
        /// Waits for the thread to finish (a model join edge for
        /// attached threads), returning its result.
        ///
        /// # Errors
        ///
        /// Returns the thread's panic payload if it panicked.
        pub fn join(self) -> std::thread::Result<T> {
            if let (Some(tid), Some(me)) = (self.tid, me()) {
                rt::join_thread(me, tid);
            }
            self.inner.join()
        }
    }

    /// Spawns a new thread; modeled when the spawner is attached.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        match me() {
            Some(me) => {
                let tid = rt::spawn_thread(me, None);
                JoinHandle {
                    inner: std::thread::spawn(move || rt::child_main(tid, None, f)),
                    tid: Some(tid),
                }
            }
            None => JoinHandle {
                inner: std::thread::spawn(f),
                tid: None,
            },
        }
    }

    /// A scope for spawning borrowing threads.
    #[derive(Debug)]
    pub struct Scope<'scope, 'env> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
        sid: Option<usize>,
    }

    /// Handle to a scoped thread.
    #[derive(Debug)]
    pub struct ScopedJoinHandle<'scope, T> {
        inner: std::thread::ScopedJoinHandle<'scope, T>,
        tid: Option<rt::Tid>,
    }

    impl<T> ScopedJoinHandle<'_, T> {
        /// Waits for the scoped thread to finish, returning its result.
        ///
        /// # Errors
        ///
        /// Returns the thread's panic payload if it panicked.
        pub fn join(self) -> std::thread::Result<T> {
            if let (Some(tid), Some(me)) = (self.tid, me()) {
                rt::join_thread(me, tid);
            }
            self.inner.join()
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawns a scoped thread; modeled when the spawner is attached.
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce() -> T + Send + 'scope,
            T: Send + 'scope,
        {
            match (self.sid, me()) {
                (Some(sid), Some(me)) => {
                    let tid = rt::spawn_thread(me, Some(sid));
                    ScopedJoinHandle {
                        inner: self.inner.spawn(move || rt::child_main(tid, Some(sid), f)),
                        tid: Some(tid),
                    }
                }
                _ => ScopedJoinHandle {
                    inner: self.inner.spawn(f),
                    tid: None,
                },
            }
        }
    }

    /// Creates a thread scope. For attached threads every scoped spawn
    /// is modeled, and the scope model-joins all of them before the real
    /// `std::thread::scope` exit performs its (then immediate) real
    /// joins — so the real joins can never park a modeled thread.
    pub fn scope<'env, F, T>(f: F) -> T
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> T,
    {
        let Some(me) = me() else {
            return std::thread::scope(|s| {
                f(&Scope {
                    inner: s,
                    sid: None,
                })
            });
        };
        let sid = rt::scope_enter(me);
        let result = std::thread::scope(|s| {
            // Catch panics from the scope body *inside* the real scope:
            // a real panic must record its violation and cancel (waking
            // parked children) before the real scope waits for them.
            let body = catch_unwind(AssertUnwindSafe(|| {
                f(&Scope {
                    inner: s,
                    sid: Some(sid),
                })
            }));
            if let Err(payload) = &body {
                if !payload.is::<rt::ModelAbort>() {
                    rt::report_real_panic(me, &rt::payload_msg(payload.as_ref()));
                }
            } else {
                rt::scope_join(me, sid);
            }
            body
        });
        match result {
            Ok(value) => value,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    /// A schedule point for attached threads (model time does not pass);
    /// a real sleep otherwise.
    pub fn sleep(duration: std::time::Duration) {
        match me() {
            Some(me) => rt::schedule_point(me, "sleep"),
            None => std::thread::sleep(duration),
        }
    }

    /// A schedule point for attached threads; a real yield otherwise.
    pub fn yield_now() {
        match me() {
            Some(me) => rt::schedule_point(me, "yield"),
            None => std::thread::yield_now(),
        }
    }
}
