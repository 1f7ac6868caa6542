//! Fork–join on the cores a run leaves idle.
//!
//! [`join`] runs two closures at once: the first on the calling thread, the
//! second on a helper thread when one is idle, inline after the first when
//! none is — or when the helper has not started on it by the time the first
//! is done. The helpers — one per core beyond the first
//! ([`helpers`]) — start on first use, park when idle, and their number
//! never grows. A call never waits for a helper to become free: a caller
//! that finds every helper busy (several test threads, several event loops,
//! a nested call) runs both closures itself, so concurrent callers cannot
//! block each other.
//!
//! A thread may borrow a helper only when the run it drives leaves cores
//! idle. Every thread may by default — the sim and loopback backends drive
//! a whole run from one thread — and [`allow_helpers`] switches it off for
//! the calling thread: a reactor whose event loops fill the cores does so
//! on each loop thread.
//!
//! Lending a closure that borrows the caller's stack to another thread is
//! the module's one `unsafe` block; `join` returns only after whoever ran
//! it has finished with it (rayon's `join` contract).

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// How long a caller that finished its own closure first spins on the
/// helper's before it parks: about one hand-off, so a helper that started
/// late is waited for without a second futex round trip.
const SPIN: Duration = Duration::from_micros(20);

thread_local! {
    /// Whether this thread may borrow a helper ([`allow_helpers`]).
    static MAY_BORROW: Cell<bool> = const { Cell::new(true) };
    /// Closures a helper has run for this thread ([`handoffs`]).
    static HANDOFFS: Cell<u64> = const { Cell::new(0) };
}

/// A closure lent to a helper — its lifetime erased, see [`join`] — and the
/// thread to wake when it has returned.
type Lent = (&'static mut (dyn FnMut() + Send), Thread);

/// What a caller and one helper share.
#[derive(Default)]
struct Slot {
    /// Held by a caller from the moment it claims the helper until it has
    /// seen its closure finish.
    busy: AtomicBool,
    /// Set by the helper once the lent closure has returned.
    done: AtomicBool,
    /// The closure lent and not yet taken.
    job: Mutex<Option<Lent>>,
}

impl Slot {
    /// Take the lent closure, if it is still there.
    fn take(&self) -> Option<Lent> {
        self.job
            .lock()
            .expect("no helper panics holding its slot")
            .take()
    }
}

struct Helper {
    slot: Arc<Slot>,
    thread: Thread,
}

/// The number of helper threads: one per core beyond the first, so 0 on a
/// one-core host, where [`join`] always runs inline.
pub fn helpers() -> usize {
    static COUNT: OnceLock<usize> = OnceLock::new();
    *COUNT.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get) - 1)
}

/// Let (`true`, the default) or forbid the calling thread to borrow a
/// helper. A thread whose siblings already keep every core busy forbids
/// it: a helper would only take a core from one of them.
pub fn allow_helpers(allowed: bool) {
    MAY_BORROW.set(allowed);
}

/// Whether a [`join`] on this thread may hand its second closure to a
/// helper: the thread has not forbidden it and the host has a helper.
pub fn helpers_allowed() -> bool {
    MAY_BORROW.get() && helpers() > 0
}

/// How many closures a helper has run for this thread so far.
pub fn handoffs() -> u64 {
    HANDOFFS.get()
}

/// Run `a` on the calling thread and `b` on an idle helper at the same
/// time, or `b` inline after `a` when no helper is idle, this thread may
/// not borrow one, or the helper has not started on `b` by the end of `a`;
/// return both results. Returns only once both closures have finished. A
/// panic in either is re-raised on the caller once both have finished
/// (`a`'s first; when `a` panics, a `b` no helper took may not run), and
/// the helper serves the next call.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    let Some(helper) = idle_helper() else {
        return (a(), b());
    };
    let mut b = Some(b);
    let mut out = None;
    let mut task = || {
        if let Some(b) = b.take() {
            out = Some(panic::catch_unwind(AssertUnwindSafe(b)));
        }
    };
    let task: &mut (dyn FnMut() + Send + '_) = &mut task;
    // SAFETY: the erased lifetime covers `task`, `b` and `out`, all on
    // this frame. The borrow leaves this thread only through the helper's
    // slot, and whoever takes it from there first calls it, once: the
    // helper, which sets `done` only after the call has returned, or
    // `lent.finish` below, which otherwise returns only once it has seen
    // `done`. Nothing between here and `finish` can leave this frame — `a`
    // runs under `catch_unwind`, and `finish` does not panic — so no use of
    // the borrow outlives the frame, and until `finish` this thread touches
    // neither `b` nor `out`. `task` catches `b`'s panic, so the helper never
    // unwinds out of the call.
    let task: &'static mut (dyn FnMut() + Send) = unsafe { std::mem::transmute(task) };
    let lent = helper.lend(task);
    let ra = panic::catch_unwind(AssertUnwindSafe(a));
    lent.finish();
    let rb = out.expect("the lent closure ran");
    match (ra, rb) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(payload), _) | (_, Err(payload)) => panic::resume_unwind(payload),
    }
}

/// A helper this thread has claimed, if it may borrow one and one is idle.
fn idle_helper() -> Option<&'static Helper> {
    if !helpers_allowed() {
        return None;
    }
    pool().iter().find(|helper| {
        let busy = &helper.slot.busy;
        !busy.load(Ordering::Relaxed)
            && busy
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
    })
}

/// The helpers, started on first use: by [`start`], or else by the first
/// [`join`] that may borrow one.
fn pool() -> &'static [Helper] {
    static POOL: OnceLock<Vec<Helper>> = OnceLock::new();
    POOL.get_or_init(|| (0..helpers()).map(Helper::spawn).collect())
}

/// Start the helpers now if they have not started. An obstacle problem
/// large enough for a split sweep calls this before it allocates its
/// arrays: the pool's few allocations then sit below a solve's large
/// arrays on the allocator's heap instead of between them, where they
/// measurably changed how much memory the heap kept (a later construction
/// of the same problem page-faulted twice as often), and the first split
/// sweep does not pay for the thread starts.
pub(crate) fn start() {
    pool();
}

impl Helper {
    fn spawn(index: usize) -> Self {
        let slot = Arc::new(Slot::default());
        let serving = Arc::clone(&slot);
        let handle = thread::Builder::new()
            .name(format!("obstacle-helper-{index}"))
            .spawn(move || serve(&serving))
            .expect("spawn an obstacle helper thread");
        Self {
            slot,
            thread: handle.thread().clone(),
        }
    }

    /// Hand `task` to this (claimed) helper and wake it.
    fn lend(&'static self, task: &'static mut (dyn FnMut() + Send)) -> Claimed {
        *self
            .slot
            .job
            .lock()
            .expect("no helper panics holding its slot") = Some((task, thread::current()));
        self.thread.unpark();
        Claimed(&self.slot)
    }
}

/// A helper slot this thread has lent a closure to.
struct Claimed(&'static Slot);

impl Claimed {
    /// See the lent closure through, then free the helper. A helper that
    /// has not taken it yet — still waking, or its core taken by another
    /// process — no longer gets it: this thread takes it back and runs it
    /// itself, so a slow hand-off costs at most the closure's own time.
    /// Otherwise wait until the helper's call has returned.
    fn finish(self) {
        let slot = self.0;
        if let Some((task, _)) = slot.take() {
            task();
        } else {
            HANDOFFS.set(HANDOFFS.get() + 1);
            let start = Instant::now();
            while !slot.done.load(Ordering::Acquire) {
                if start.elapsed() < SPIN {
                    std::hint::spin_loop();
                } else {
                    thread::park();
                }
            }
            slot.done.store(false, Ordering::Relaxed);
        }
        slot.busy.store(false, Ordering::Release);
    }
}

/// A helper's life: run what is lent, report it done, park when idle.
fn serve(slot: &Slot) {
    loop {
        match slot.take() {
            Some((task, caller)) => {
                task();
                slot.done.store(true, Ordering::Release);
                caller.unpark();
            }
            None => thread::park(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A join whose `b` names the thread it ran on; `a` gives a helper up
    /// to 100 ms to start on `b` before this thread takes it back.
    fn where_b_runs() -> Option<String> {
        let started = AtomicBool::new(false);
        let (_, name) = join(
            || {
                let give_up = Instant::now() + Duration::from_millis(100);
                while !started.load(Ordering::Acquire) && Instant::now() < give_up {
                    std::hint::spin_loop();
                }
            },
            || {
                started.store(true, Ordering::Release);
                thread::current().name().map(str::to_owned)
            },
        );
        name
    }

    #[test]
    fn both_closures_run_and_return_their_results() {
        let mut left = vec![1, 2, 3];
        let right = [4, 5];
        let (a, b) = join(
            || {
                left.push(4);
                left.len()
            },
            || right.iter().sum::<i32>(),
        );
        assert_eq!((a, b), (4, 9));
        assert_eq!(left, [1, 2, 3, 4]);
    }

    /// A panic in the lent closure reaches the caller, and the helper then
    /// serves the next call: it caught the panic instead of dying with it.
    #[test]
    fn a_panic_in_b_reaches_the_caller_and_the_helper_serves_on() {
        for _ in 0..4 {
            let caught = panic::catch_unwind(|| join(|| 1, || -> i32 { panic!("lent closure") }));
            let payload = caught.expect_err("b's panic is re-raised");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"lent closure"));
        }
        if helpers() == 0 {
            return;
        }
        // Other tests may hold every helper for a while; keep asking.
        let deadline = Instant::now() + Duration::from_secs(10);
        let served = std::iter::from_fn(|| (Instant::now() < deadline).then(where_b_runs))
            .flatten()
            .any(|name| name.starts_with("obstacle-helper-"));
        assert!(served, "no helper served a join after the panics");
    }

    /// A panic in the caller's own closure waits for the lent one, once a
    /// helper runs it: the caller's frame outlives every borrow the helper
    /// holds.
    #[test]
    fn a_panic_in_a_waits_for_b() {
        let started = AtomicBool::new(false);
        let finished = AtomicBool::new(false);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            join(
                || {
                    let give_up = Instant::now() + Duration::from_millis(100);
                    while !started.load(Ordering::Acquire) && Instant::now() < give_up {
                        std::hint::spin_loop();
                    }
                    panic!("caller's closure")
                },
                || {
                    started.store(true, Ordering::Release);
                    thread::sleep(Duration::from_millis(20));
                    finished.store(true, Ordering::Release);
                },
            )
        }));
        assert!(caught.is_err());
        // Every helper busy: `b` was never lent, and `a`'s panic skipped it.
        if started.load(Ordering::Acquire) {
            assert!(finished.load(Ordering::Acquire));
        }
    }

    /// A thread that forbade borrowing never hands a closure off.
    #[test]
    fn a_thread_that_may_not_borrow_runs_inline() {
        thread::spawn(|| {
            allow_helpers(false);
            assert!(!helpers_allowed());
            let caller = thread::current().id();
            for _ in 0..100 {
                let (_, ran_on) = join(|| (), || thread::current().id());
                assert_eq!(ran_on, caller);
            }
            assert_eq!(handoffs(), 0);
        })
        .join()
        .expect("the test thread");
    }

    /// Nested joins: a lent closure may split again. Every leaf runs once,
    /// wherever it lands.
    #[test]
    fn nested_joins_run_every_leaf_once() {
        fn sum(values: &[u64]) -> u64 {
            if values.len() <= 2 {
                return values.iter().sum();
            }
            let (lo, hi) = values.split_at(values.len() / 2);
            let (a, b) = join(|| sum(lo), || sum(hi));
            a + b
        }
        let values: Vec<u64> = (1..=1000).collect();
        for _ in 0..20 {
            assert_eq!(sum(&values), 500_500);
        }
    }
}
