//! Stackful coroutines for the engine: each rank body runs on its own stack
//! and is switched in and out by its carrier thread ([`crate::sched`]).
//! This module holds every `unsafe` block of the crate.
//!
//! On x86_64 Linux a coroutine is an `mmap`ed stack plus a saved stack
//! pointer, and `switch` is one naked function that saves the
//! callee-saved registers and `rsp` and loads the other side's. Elsewhere a
//! coroutine is an OS thread that takes turns with its carrier through a
//! baton; the carrier and ready-queue logic above is the same either way.
//! Building with `--cfg netsim_baton` selects the baton on x86_64 Linux too,
//! so the fallback can be tested there.
//!
//! Three rules make the switch sound:
//!
//! * **Pinning.** A coroutine is created, resumed and dropped on one carrier
//!   thread ([`Coroutine`] is `!Send`). Code on a coroutine stack may have
//!   cached a thread-local's address across [`suspend`], and std's own
//!   thread-locals (panic count, `thread::current`) must see one thread.
//! * **No unwinding across the base.** The entry catches every panic; a
//!   rank's panic comes back from [`Coroutine::resume`] as `Err(payload)`.
//! * **No reuse of a live stack.** A stack returns to the pool only after
//!   its coroutine finished; dropping one that is suspended leaks its stack
//!   (its frames are never resumed, and their memory is never reused).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread;

/// Smallest stack a coroutine gets (glibc's `PTHREAD_STACK_MIN`): the
/// entry, `catch_unwind` and the panic hook need some room of their own.
const MIN_STACK: usize = 16 << 10;

pub(crate) use imp::{suspend, with_local, Coroutine};

/// Run `f` at the base of a coroutine: every panic is caught here.
fn run_caught<R>(f: impl FnOnce() -> R) -> thread::Result<R> {
    catch_unwind(AssertUnwindSafe(f))
}

#[cfg(all(target_arch = "x86_64", target_os = "linux", not(netsim_baton)))]
mod imp {
    use std::cell::Cell;
    use std::marker::PhantomData;
    use std::ptr;
    use std::thread;

    use parking_lot::Mutex;

    use super::{run_caught, MIN_STACK};
    use crate::sched::Current;

    // glibc's declarations (`size_t` lengths, `int` flags, `off_t` offset).
    extern "C" {
        fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut u8;
        fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
    }
    const PROT_NONE: i32 = 0;
    const PROT_READ: i32 = 1;
    const PROT_WRITE: i32 = 2;
    const MAP_PRIVATE: i32 = 0x02;
    const MAP_ANONYMOUS: i32 = 0x20;
    const MAP_NORESERVE: i32 = 0x4000;
    const MAP_STACK: i32 = 0x20000;
    const MAP_FAILED: *mut u8 = !0usize as *mut u8;
    /// x86_64 Linux base page size.
    const PAGE: usize = 4096;

    /// One `mmap`ed stack: a `PROT_NONE` guard page at `base`, then `usable`
    /// read-write bytes growing down from the top.
    struct Stack {
        base: *mut u8,
        usable: usize,
    }

    // SAFETY: a `Stack` is an owned mapping, addressed only through this
    // handle; moving the handle between threads (in and out of the pool)
    // moves that ownership.
    unsafe impl Send for Stack {}

    /// Stacks of finished coroutines, reused by later runs. Mappings are
    /// never unmapped: the pool holds as many as the widest run needed.
    static POOL: Mutex<Vec<Stack>> = Mutex::new(Vec::new());

    impl Stack {
        fn take(usable: usize) -> Stack {
            {
                let mut pool = POOL.lock();
                if let Some(i) = pool.iter().position(|s| s.usable == usable) {
                    return pool.swap_remove(i);
                }
            }
            let len = usable + PAGE;
            // SAFETY: an anonymous private mapping at an address of the
            // kernel's choice touches no existing memory.
            let base = unsafe {
                mmap(
                    ptr::null_mut(),
                    len,
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                    -1,
                    0,
                )
            };
            assert!(
                base != MAP_FAILED,
                "mmap of a {len}-byte rank stack failed: {}",
                std::io::Error::last_os_error()
            );
            // SAFETY: `base..base + PAGE` lies inside the mapping just made,
            // which nothing else references yet.
            let rc = unsafe { mprotect(base, PAGE, PROT_NONE) };
            assert!(
                rc == 0,
                "mprotect of a stack guard page failed: {}",
                std::io::Error::last_os_error()
            );
            Stack { base, usable }
        }

        /// One past the highest usable byte (page-aligned, so 16-aligned).
        fn top(&self) -> *mut u8 {
            self.base.wrapping_add(PAGE + self.usable)
        }
    }

    /// The part of a coroutine the switch and [`with_local`] reach through
    /// the carrier's [`RUNNING`] pointer.
    struct Record {
        /// The coroutine's saved stack pointer while it is suspended.
        sp: *mut u8,
        /// The carrier's saved stack pointer while the coroutine runs.
        caller: *mut u8,
        done: bool,
        local: Current,
        /// The coroutine's `Body<R>`, typed by its `entry::<R>`.
        body: *mut (),
    }

    struct Body<'a, R> {
        f: Option<Box<dyn FnOnce() -> R + Send + 'a>>,
        out: Option<thread::Result<R>>,
    }

    thread_local! {
        /// The carrier's pointer to the record of the coroutine it is
        /// running (null between resumptions).
        static RUNNING: Cell<*mut Record> = const { Cell::new(ptr::null_mut()) };
    }

    /// A rank body on its own stack, pinned to the thread that made it.
    pub(crate) struct Coroutine<'a, R> {
        rec: *mut Record,
        body: *mut Body<'a, R>,
        stack: Option<Stack>,
        /// `!Send`: see the pinning rule in the module docs.
        _pinned: PhantomData<*mut ()>,
    }

    impl<'a, R> Coroutine<'a, R> {
        /// A coroutine that will run `f` with at least `stack_size` bytes of
        /// stack, `local` as its [`with_local`] value. It starts on the
        /// first [`Coroutine::resume`].
        pub(crate) fn new(
            stack_size: usize,
            local: Current,
            f: impl FnOnce() -> R + Send + 'a,
        ) -> Self {
            let usable = stack_size.max(MIN_STACK).next_multiple_of(PAGE);
            let stack = Stack::take(usable);
            let body = Box::into_raw(Box::new(Body {
                f: Some(Box::new(f) as Box<dyn FnOnce() -> R + Send + 'a>),
                out: None,
            }));
            // The first switch into the coroutine pops this frame (see
            // `switch`): the MXCSR/x87 control words, six zeroed
            // callee-saved registers, then returns into `entry::<R>` with
            // rsp at the zero slot, as if `entry` had been called from a
            // frame whose return address is 0 (which ends backtraces).
            let top = stack.top() as *mut u64;
            let frame: [u64; 9] = [
                // MXCSR (low half) and x87 control word, as `switch` loads them.
                0x037F_0000_1F80,
                // r15, r14, r13, r12, rbx, rbp.
                0,
                0,
                0,
                0,
                0,
                0,
                // `switch`'s return address, then `entry`'s own.
                entry::<R> as *const () as u64,
                0,
            ];
            // SAFETY: the nine words sit in the top 72 bytes of the stack's
            // usable range, which nothing else references.
            let sp = unsafe {
                let sp = top.sub(frame.len());
                ptr::copy_nonoverlapping(frame.as_ptr(), sp, frame.len());
                sp as *mut u8
            };
            let rec = Box::into_raw(Box::new(Record {
                sp,
                caller: ptr::null_mut(),
                done: false,
                local,
                body: body as *mut (),
            }));
            Coroutine {
                rec,
                body,
                stack: Some(stack),
                _pinned: PhantomData,
            }
        }

        /// Run the coroutine until it suspends (`None`) or finishes
        /// (`Some`, its result or panic payload). Must not be called again
        /// after it finished.
        pub(crate) fn resume(&mut self) -> Option<thread::Result<R>> {
            let rec = self.rec;
            // SAFETY: `rec` is live until drop and, with `_pinned`, only
            // this thread touches it. The coroutine has not finished
            // (checked), its saved `sp` is a frame built by `new` or by
            // `switch` in `suspend`, and RUNNING is set for the duration so
            // `suspend` returns here.
            unsafe {
                assert!(!(*rec).done, "resumed a finished coroutine");
                let outer = RUNNING.replace(rec);
                assert!(outer.is_null(), "resume from inside a coroutine");
                switch(ptr::addr_of_mut!((*rec).caller), (*rec).sp);
                RUNNING.set(ptr::null_mut());
                if !(*rec).done {
                    return None;
                }
                let out = (*self.body).out.take();
                Some(out.expect("a finished coroutine left its result"))
            }
        }
    }

    impl<R> Drop for Coroutine<'_, R> {
        fn drop(&mut self) {
            // SAFETY: `rec` and `body` came from `Box::into_raw` in `new`
            // and are freed only here.
            unsafe {
                let started = (*self.body).f.is_none();
                if started && !(*self.rec).done {
                    // Frames on its stack point into its body and stack:
                    // leak all three (the stack stays out of the pool).
                    return;
                }
                drop(Box::from_raw(self.rec));
                drop(Box::from_raw(self.body));
            }
            if let Some(stack) = self.stack.take() {
                POOL.lock().push(stack);
            }
        }
    }

    /// The base frame of every coroutine, entered by the first `switch`.
    extern "C" fn entry<R>() -> ! {
        let rec = RUNNING.get();
        // SAFETY: `resume` set RUNNING to this coroutine's record, whose
        // `body` is the `Body<R>` this `entry::<R>` was built with.
        unsafe {
            let body = (*rec).body as *mut Body<'_, R>;
            let f = (*body).f.take().expect("a coroutine starts once");
            (*body).out = Some(run_caught(f));
            (*rec).done = true;
            // Nothing on this frame needs dropping: `f` was consumed and
            // the result moved out. The carrier never resumes a finished
            // coroutine, so this switch does not return.
            switch(ptr::addr_of_mut!((*rec).sp), (*rec).caller);
        }
        unreachable!("a finished coroutine was resumed")
    }

    /// Suspend the running coroutine and switch back to its carrier; returns
    /// when the carrier resumes it. Panics outside a coroutine.
    pub(crate) fn suspend() {
        let rec = RUNNING.get();
        assert!(!rec.is_null(), "suspend outside a coroutine");
        // SAFETY: `rec` is the record of the coroutine running on this
        // stack (set by `resume`, which is waiting in `switch` on `caller`).
        unsafe { switch(ptr::addr_of_mut!((*rec).sp), (*rec).caller) }
    }

    /// `f` of the running coroutine's local value, or `None` outside one.
    pub(crate) fn with_local<T>(f: impl FnOnce(&Current) -> T) -> Option<T> {
        let rec = RUNNING.get();
        // SAFETY: a non-null RUNNING is the live record of the coroutine
        // running on this thread; `local` is never written after `new`.
        (!rec.is_null()).then(|| f(unsafe { &(*rec).local }))
    }

    /// Save the callee-saved state on the current stack, store `rsp` to
    /// `*save`, switch to the stack at `load` and restore its state.
    ///
    /// The SysV ABI's callee-saved state is rbx, rbp, r12–r15, the MXCSR
    /// control bits and the x87 control word; everything else is
    /// clobbered by a call anyway.
    ///
    /// # Safety
    /// `save` must be writable, and `load` must be a stack pointer saved by
    /// `switch` (or a frame laid out like one, as `Coroutine::new` does)
    /// whose stack is not running anywhere.
    #[unsafe(naked)]
    unsafe extern "C" fn switch(save: *mut *mut u8, load: *mut u8) {
        std::arch::naked_asm!(
            "push rbp",
            "push rbx",
            "push r12",
            "push r13",
            "push r14",
            "push r15",
            "sub rsp, 8",
            "stmxcsr dword ptr [rsp]",
            "fnstcw word ptr [rsp + 4]",
            "mov [rdi], rsp",
            "mov rsp, rsi",
            "ldmxcsr dword ptr [rsp]",
            "fldcw word ptr [rsp + 4]",
            "add rsp, 8",
            "pop r15",
            "pop r14",
            "pop r13",
            "pop r12",
            "pop rbx",
            "pop rbp",
            "ret",
        )
    }
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux", not(netsim_baton))))]
mod imp {
    use std::cell::RefCell;
    use std::marker::PhantomData;
    use std::sync::Arc;
    use std::thread;

    use parking_lot::{Condvar, Mutex};

    use super::{run_caught, MIN_STACK};
    use crate::sched::Current;

    /// Whose turn it is to run: exactly one side of a baton runs at a time.
    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Turn {
        Carrier,
        Coroutine,
        Done,
        /// Dropped before it started: the thread exits without running.
        Abandoned,
    }

    struct Baton {
        turn: Mutex<Turn>,
        cv: Condvar,
    }

    impl Baton {
        /// Hand the turn to `to`, then wait until it is no longer `to`.
        fn pass(&self, to: Turn) -> Turn {
            let mut g = self.turn.lock();
            *g = to;
            self.cv.notify_all();
            while *g == to {
                self.cv.wait(&mut g);
            }
            *g
        }

        fn set(&self, to: Turn) {
            *self.turn.lock() = to;
            self.cv.notify_all();
        }
    }

    thread_local! {
        /// On a coroutine's own thread: its baton and local value.
        static RUNNING: RefCell<Option<(Arc<Baton>, Current)>> = const { RefCell::new(None) };
    }

    /// A rank body on its own OS thread, taking turns with the carrier that
    /// made it.
    pub(crate) struct Coroutine<'a, R> {
        baton: Arc<Baton>,
        thread: Option<thread::JoinHandle<()>>,
        out: Arc<Mutex<Option<thread::Result<R>>>>,
        started: bool,
        _pinned: PhantomData<(*mut (), &'a ())>,
    }

    impl<'a, R: Send + 'a> Coroutine<'a, R> {
        pub(crate) fn new(
            stack_size: usize,
            local: Current,
            f: impl FnOnce() -> R + Send + 'a,
        ) -> Self {
            let baton = Arc::new(Baton {
                turn: Mutex::new(Turn::Carrier),
                cv: Condvar::new(),
            });
            let out = Arc::new(Mutex::new(None));
            let (b, o) = (Arc::clone(&baton), Arc::clone(&out));
            let body = move || {
                {
                    let mut g = b.turn.lock();
                    while *g == Turn::Carrier {
                        b.cv.wait(&mut g);
                    }
                    if *g == Turn::Abandoned {
                        return;
                    }
                }
                RUNNING.with(|r| *r.borrow_mut() = Some((Arc::clone(&b), local)));
                let res = run_caught(f);
                *o.lock() = Some(res);
                b.set(Turn::Done);
            };
            let builder = thread::Builder::new().stack_size(stack_size.max(MIN_STACK));
            // SAFETY: the thread borrows data of lifetime 'a. It is joined
            // when it finishes (`resume`) or is abandoned before starting
            // (`drop`); one dropped mid-run aborts the process, so the
            // thread never outlives 'a.
            let thread =
                unsafe { builder.spawn_unchecked(body) }.expect("failed to spawn rank thread");
            Coroutine {
                baton,
                thread: Some(thread),
                out,
                started: false,
                _pinned: PhantomData,
            }
        }

        pub(crate) fn resume(&mut self) -> Option<thread::Result<R>> {
            self.started = true;
            if self.baton.pass(Turn::Coroutine) != Turn::Done {
                return None;
            }
            let h = self.thread.take().expect("resumed a finished coroutine");
            h.join().expect("a coroutine thread catches its panics");
            let out = self.out.lock().take();
            Some(out.expect("a finished coroutine left its result"))
        }
    }

    impl<R> Drop for Coroutine<'_, R> {
        fn drop(&mut self) {
            let Some(h) = self.thread.take() else { return };
            if self.started {
                eprintln!("netsim: a suspended rank thread cannot be reclaimed");
                std::process::abort();
            }
            self.baton.set(Turn::Abandoned);
            let _ = h.join();
        }
    }

    pub(crate) fn suspend() {
        let baton = RUNNING.with(|r| r.borrow().as_ref().map(|(b, _)| Arc::clone(b)));
        let baton = baton.expect("suspend outside a coroutine");
        baton.pass(Turn::Carrier);
    }

    pub(crate) fn with_local<T>(f: impl FnOnce(&Current) -> T) -> Option<T> {
        RUNNING.with(|r| r.borrow().as_ref().map(|(_, c)| f(c)))
    }
}
