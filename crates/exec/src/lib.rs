//! Stackful coroutines for the cooperative simulation executor.
//!
//! The engine in `tp-core` runs every simulated environment as a [`Coro`]: a
//! resumable task with its own call stack, driven by a single driver on the
//! thread that started the simulation. An environment [`suspend`]s back to
//! the driver whenever it would otherwise block (waiting for its scheduling
//! turn, waiting for preemption).
//!
//! Two interchangeable backends implement the same resume/suspend contract:
//!
//! * **Stack** (x86_64 only, the default): a hand-rolled context switch that
//!   saves the System-V callee-saved registers (`rbp`, `rbx`, `r12`–`r15`),
//!   the `MXCSR` control word and the x87 control word, and swaps `rsp` onto
//!   a heap-allocated stack. A resume/suspend pair is two register swaps —
//!   no syscalls, no scheduler round trips.
//! * **Thread** (all architectures; forced with `TP_CORO=thread`): one
//!   parked OS thread per coroutine with a pair of rendezvous channels. It
//!   exists as a portability fallback and as a differential oracle for the
//!   stack backend in tests.
//!
//! # Safety contract
//!
//! This is the only crate in the workspace that uses `unsafe`. The stack
//! backend is sound under two conditions the executor upholds:
//!
//! 1. **No `!Send` state across suspends.** A coroutine may be resumed by a
//!    *different* host thread than the one it last suspended on. The closure
//!    must therefore not hold thread-affine values (e.g. a
//!    `std::sync::MutexGuard`, thread-local borrows) across a [`suspend`]
//!    call. The engine releases the simulation lock before every suspend and
//!    re-acquires it after resume.
//! 2. **Coroutines are driven to completion.** Dropping an incomplete stack
//!    coroutine frees its stack without unwinding it, leaking any
//!    interior objects. The executor drains every task (a stopping
//!    simulation unwinds its environments with its exit payload) before
//!    dropping, so nothing leaks in practice.
//!
//! Panics never cross the assembly: the coroutine entry point catches the
//! unwind and hands the payload back to the host through [`Coro::take_panic`],
//! mirroring what `std::thread::JoinHandle::join` returns for a thread.

#![warn(missing_docs)]

use std::any::Any;
use std::cell::Cell;
use std::sync::OnceLock;

/// Default coroutine stack size when `TP_STACK_KB` is unset: 256 KiB.
///
/// Generous for the simulator's environments (shallow call graphs, no
/// recursion); heap pages are committed lazily by the OS, so thousands of
/// idle coroutines cost address space, not RSS.
const DEFAULT_STACK_KIB: usize = 256;

/// Floor on the coroutine stack size; below this the entry trampoline and
/// panic machinery themselves would not fit safely.
const MIN_STACK_BYTES: usize = 32 * 1024;

/// The coroutine stack size in bytes: `TP_STACK_KB` (KiB, min 32) or the
/// 256 KiB default. Read once per process.
pub fn default_stack_bytes() -> usize {
    static BYTES: OnceLock<usize> = OnceLock::new();
    *BYTES.get_or_init(|| stack_bytes_from(std::env::var("TP_STACK_KB").ok().as_deref()))
}

/// Parse a `TP_STACK_KB` value into a stack size in bytes. Unset, non-
/// numeric and overflowing values (more KiB than fit in `usize` bytes)
/// fall back to the default; tiny ones are raised to the floor.
fn stack_bytes_from(raw: Option<&str>) -> usize {
    raw.and_then(|s| s.trim().parse::<usize>().ok())
        .and_then(|kib| kib.checked_mul(1024))
        .map_or(DEFAULT_STACK_KIB * 1024, |b| b.max(MIN_STACK_BYTES))
}

/// Guard value written at the base (lowest address) of every stack-backend
/// coroutine stack, and mirrored as a per-task slot by the thread backend so
/// both backends share one overflow-detection contract. An overflowing
/// coroutine overwrites the base of its stack last, so a dead canary at a
/// suspend point means the stack was exhausted (or deliberately clobbered by
/// the `stack-overflow` fault class).
const CANARY: u64 = 0x7A5E_CA11_DEAD_F00D;

/// The canonical stack-overflow panic: every canary-check failure raises
/// this message, so the engine and supervisor classify overflows uniformly
/// across backends.
fn overflow_panic(stack_bytes: Option<usize>) -> ! {
    match stack_bytes {
        Some(b) => panic!(
            "stack overflow: coroutine guard canary clobbered (stack {} KiB; raise TP_STACK_KB)",
            b / 1024
        ),
        None => panic!("stack overflow: coroutine guard canary clobbered (raise TP_STACK_KB)"),
    }
}

/// Whether the running coroutine's stack guard canary is intact. Always
/// `true` from plain host code (there is no coroutine stack to guard).
pub fn canary_intact() -> bool {
    match current_get() {
        Current::Host => true,
        #[cfg(target_arch = "x86_64")]
        Current::Stack(inner) => unsafe { stack::canary_ok(inner) },
        Current::Thread(task) => unsafe { thread_impl::canary_ok(task) },
    }
}

/// Deliberately kill the running coroutine's stack guard canary — the
/// deterministic injection point for the `stack-overflow` fault class. The
/// next canary check (every [`suspend`], or an explicit [`canary_intact`])
/// reports the overflow. No-op from plain host code.
pub fn clobber_canary() {
    match current_get() {
        Current::Host => {}
        #[cfg(target_arch = "x86_64")]
        Current::Stack(inner) => unsafe { stack::clobber_canary(inner) },
        Current::Thread(task) => unsafe { thread_impl::clobber_canary(task) },
    }
}

/// Which coroutine implementation backs a [`Coro`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// In-place context switch on a heap-allocated stack (x86_64 only).
    Stack,
    /// One parked OS thread per coroutine (portable fallback and oracle).
    Thread,
}

/// The process-wide default backend: `Stack` on x86_64 unless
/// `TP_CORO=thread` is set; `Thread` everywhere else. Read once.
pub fn default_backend() -> Backend {
    static BACKEND: OnceLock<Backend> = OnceLock::new();
    *BACKEND.get_or_init(|| {
        let forced_thread = std::env::var("TP_CORO")
            .map(|v| v == "thread")
            .unwrap_or(false);
        if cfg!(target_arch = "x86_64") && !forced_thread {
            Backend::Stack
        } else {
            Backend::Thread
        }
    })
}

/// What the current thread is running, from the coroutine machinery's point
/// of view. Set for the duration of a resume (stack backend) or for the
/// lifetime of the task body (thread backend).
#[derive(Clone, Copy)]
enum Current {
    /// Plain host code: [`suspend`] is a bug here.
    Host,
    /// Inside a stack-backend coroutine.
    #[cfg(target_arch = "x86_64")]
    Stack(*mut stack::Inner),
    /// Inside a thread-backend coroutine.
    Thread(*const thread_impl::TaskSide),
}

thread_local! {
    static CURRENT: Cell<Current> = const { Cell::new(Current::Host) };
}

fn current_replace(c: Current) -> Current {
    CURRENT.with(|t| t.replace(c))
}

fn current_set(c: Current) {
    CURRENT.with(|t| t.set(c));
}

fn current_get() -> Current {
    CURRENT.with(Cell::get)
}

/// `true` when called from inside a coroutine body (either backend), i.e.
/// when [`suspend`] is legal.
pub fn on_coroutine() -> bool {
    !matches!(current_get(), Current::Host)
}

/// Yield the running coroutine back to the host thread that resumed it.
///
/// Returns when some host thread — not necessarily the same one — calls
/// [`Coro::resume`] again. Callers must not hold thread-affine (`!Send`)
/// values across this call; see the crate-level safety contract.
///
/// # Panics
///
/// Panics if called from plain host code (outside any coroutine).
pub fn suspend() {
    match current_get() {
        Current::Host => panic!("tp_exec::suspend() called outside a coroutine"),
        #[cfg(target_arch = "x86_64")]
        Current::Stack(inner) => unsafe { stack::suspend(inner) },
        Current::Thread(task) => unsafe { thread_impl::suspend(task) },
    }
}

enum Imp {
    #[cfg(target_arch = "x86_64")]
    Stack(stack::StackCoro),
    Thread(thread_impl::ThreadCoro),
}

/// A resumable task with its own stack.
///
/// Created suspended; the closure does not run until the first
/// [`resume`](Coro::resume). Each resume runs the task until it either
/// [`suspend`]s (resume returns `false`) or finishes — by returning or by
/// panicking — after which resume returns `true` and the panic payload, if
/// any, is available from [`take_panic`](Coro::take_panic).
pub struct Coro(Imp);

impl Coro {
    /// Create a coroutine on the default backend with the default stack size.
    pub fn new(f: impl FnOnce() + Send + 'static) -> Coro {
        Self::with_stack(default_stack_bytes(), f)
    }

    /// Create a coroutine on the default backend with an explicit stack size
    /// in bytes (clamped up to a safe minimum; ignored by the thread
    /// backend, whose stacks are ordinary OS thread stacks).
    pub fn with_stack(stack_bytes: usize, f: impl FnOnce() + Send + 'static) -> Coro {
        #[cfg(target_arch = "x86_64")]
        if default_backend() == Backend::Stack {
            return Coro(Imp::Stack(stack::new(stack_bytes, Box::new(f))));
        }
        let _ = stack_bytes;
        Coro(Imp::Thread(thread_impl::new(Box::new(f))))
    }

    /// Create a coroutine explicitly on the thread backend, regardless of
    /// the process default. Used by tests as a differential oracle.
    pub fn thread_backed(f: impl FnOnce() + Send + 'static) -> Coro {
        Coro(Imp::Thread(thread_impl::new(Box::new(f))))
    }

    /// Run the task until its next suspend or completion.
    ///
    /// Returns `true` once the task has completed (further resumes are a
    /// contract violation and panic).
    pub fn resume(&mut self) -> bool {
        match &mut self.0 {
            #[cfg(target_arch = "x86_64")]
            Imp::Stack(c) => c.resume(),
            Imp::Thread(c) => c.resume(),
        }
    }

    /// `true` once the task has run to completion (returned or panicked).
    pub fn is_complete(&self) -> bool {
        match &self.0 {
            #[cfg(target_arch = "x86_64")]
            Imp::Stack(c) => c.is_complete(),
            Imp::Thread(c) => c.is_complete(),
        }
    }

    /// Take the panic payload of a completed task, if it panicked — exactly
    /// what `JoinHandle::join` would have returned as `Err` under
    /// thread-per-environment execution.
    pub fn take_panic(&mut self) -> Option<Box<dyn Any + Send + 'static>> {
        match &mut self.0 {
            #[cfg(target_arch = "x86_64")]
            Imp::Stack(c) => c.take_panic(),
            Imp::Thread(c) => c.take_panic(),
        }
    }
}

impl std::fmt::Debug for Coro {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let backend = match self.0 {
            #[cfg(target_arch = "x86_64")]
            Imp::Stack(_) => "stack",
            Imp::Thread(_) => "thread",
        };
        f.debug_struct("Coro")
            .field("backend", &backend)
            .field("complete", &self.is_complete())
            .finish()
    }
}

/// The x86_64 stack backend: a System-V context switch onto heap stacks.
#[cfg(target_arch = "x86_64")]
mod stack {
    use super::{current_replace, current_set, Current};
    use std::alloc::{alloc, dealloc, Layout};
    use std::any::Any;

    /// Shared state between the host side ([`StackCoro`]) and the coroutine
    /// side (reached through the `r12` slot seeded on the fresh stack).
    /// Boxed so its address is stable across moves of the handle.
    pub(super) struct Inner {
        /// Saved `rsp` of the coroutine while it is suspended.
        co_rsp: u64,
        /// Saved `rsp` of the host thread while the coroutine runs.
        host_rsp: u64,
        complete: bool,
        closure: Option<Box<dyn FnOnce() + Send + 'static>>,
        panic: Option<Box<dyn Any + Send + 'static>>,
        stack: *mut u8,
        layout: Layout,
    }

    pub(super) struct StackCoro {
        inner: Box<Inner>,
    }

    // SAFETY: the green stack and `Inner` are only ever touched by the one
    // host thread currently inside `resume` (the coroutine runs *on* that
    // thread), so moving the suspended handle between threads is a plain
    // ownership transfer. The crate-level contract forbids the closure from
    // holding `!Send` values across suspends, which is the only way
    // thread-affine state could otherwise ride along.
    unsafe impl Send for StackCoro {}

    /// Swap stacks: save callee-saved state on the current stack, store the
    /// resulting `rsp` through `save`, then load `rsp` from `restore` and
    /// pop the same state back. The `ret` at the end "returns" into the
    /// other context's `switch` call site (or the trampoline on first
    /// entry).
    ///
    /// # Safety
    ///
    /// `restore` must point at an `rsp` previously produced by this function
    /// (or by [`seed_stack`]), and that context must not be live on any
    /// other thread.
    #[unsafe(naked)]
    unsafe extern "C" fn switch(save: *mut u64, restore: *const u64) {
        core::arch::naked_asm!(
            "push rbp",
            "push rbx",
            "push r12",
            "push r13",
            "push r14",
            "push r15",
            "sub rsp, 8",
            "stmxcsr [rsp]",
            "fnstcw [rsp + 4]",
            "mov [rdi], rsp",
            "mov rsp, [rsi]",
            "ldmxcsr [rsp]",
            "fldcw [rsp + 4]",
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

    /// First instruction a fresh coroutine executes: `switch`'s `ret` lands
    /// here with `r12` holding the `Inner` pointer (seeded by
    /// [`seed_stack`]). Establish the ABI frame (zero `rbp`, 16-byte-align
    /// `rsp`) and call into Rust; `entry` never returns here.
    #[unsafe(naked)]
    unsafe extern "C" fn trampoline() {
        core::arch::naked_asm!(
            "mov rdi, r12",
            "xor ebp, ebp",
            "and rsp, -16",
            "call {entry}",
            "ud2",
            entry = sym entry,
        )
    }

    /// Rust-side coroutine body. Runs the closure under `catch_unwind` so no
    /// panic ever unwinds into the naked trampoline, records the outcome,
    /// and switches back to the host for the last time.
    extern "C" fn entry(inner: *mut Inner) {
        // SAFETY: `inner` is the boxed Inner this stack was seeded with; the
        // host keeps it alive until the handle is dropped, and only this
        // thread touches it while the coroutine runs. Accesses go through
        // short-lived reborrows so host-side and coroutine-side borrows
        // never overlap in time.
        let f = unsafe { (*inner).closure.take() }.expect("fresh coroutine has its closure");
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        unsafe {
            if let Err(payload) = outcome {
                (*inner).panic = Some(payload);
            }
            (*inner).complete = true;
            switch(&mut (*inner).co_rsp, &(*inner).host_rsp);
        }
        // `resume` refuses to re-enter a complete coroutine, so control can
        // never come back here. If it somehow does, the stack below us is
        // gone — abort rather than execute garbage.
        std::process::abort();
    }

    /// Power-on register image for a fresh coroutine, matching the restore
    /// half of [`switch`] (from `rsp` upward): MXCSR+FCW, `r15`–`r12`,
    /// `rbx`, `rbp`, return address.
    fn seed_stack(stack: *mut u8, size: usize, inner: *mut Inner) -> u64 {
        /// Default x86-64 FP state: MXCSR 0x1F80 (all exceptions masked,
        /// round-to-nearest) in the low word, x87 CW 0x037F at byte 4.
        const FP_DEFAULT: u64 = 0x1F80 | (0x037F << 32);
        let top = ((stack as usize + size) & !15) as *mut u64;
        // SAFETY: the 8 seeded slots lie within the freshly allocated stack
        // (size is at least MIN_STACK_BYTES).
        unsafe {
            let rsp = top.sub(8);
            rsp.add(0).write(FP_DEFAULT);
            rsp.add(1).write(0); // r15
            rsp.add(2).write(0); // r14
            rsp.add(3).write(0); // r13
            rsp.add(4).write(inner as u64); // r12: Inner for the trampoline
            rsp.add(5).write(0); // rbx
            rsp.add(6).write(0); // rbp
            rsp.add(7).write(trampoline as *const () as usize as u64); // return address
            rsp as u64
        }
    }

    pub(super) fn new(stack_bytes: usize, f: Box<dyn FnOnce() + Send + 'static>) -> StackCoro {
        let size = stack_bytes.max(super::MIN_STACK_BYTES);
        let layout = Layout::from_size_align(size, 64).expect("valid stack layout");
        // SAFETY: layout has non-zero size.
        let stack = unsafe { alloc(layout) };
        assert!(!stack.is_null(), "coroutine stack allocation failed");
        // SAFETY: the stack is at least MIN_STACK_BYTES and 64-aligned, so
        // the guard slot at its base is in-bounds and aligned.
        unsafe { (stack as *mut u64).write(super::CANARY) };
        let mut inner = Box::new(Inner {
            co_rsp: 0,
            host_rsp: 0,
            complete: false,
            closure: Some(f),
            panic: None,
            stack,
            layout,
        });
        inner.co_rsp = seed_stack(stack, size, &mut *inner);
        StackCoro { inner }
    }

    /// Whether the guard slot at the base of this coroutine's stack still
    /// holds [`super::CANARY`].
    ///
    /// # Safety
    ///
    /// `inner` must be the live `Inner` of the coroutine currently running
    /// on this thread (the pointer stored in `CURRENT`).
    pub(super) unsafe fn canary_ok(inner: *mut Inner) -> bool {
        ((*inner).stack as *const u64).read() == super::CANARY
    }

    /// Overwrite the guard slot, simulating the final write of a stack
    /// overflow (the `stack-overflow` fault class).
    ///
    /// # Safety
    ///
    /// Same contract as [`canary_ok`].
    pub(super) unsafe fn clobber_canary(inner: *mut Inner) {
        ((*inner).stack as *mut u64).write(0);
    }

    impl StackCoro {
        pub(super) fn resume(&mut self) -> bool {
            assert!(!self.inner.complete, "resume on a completed coroutine");
            let inner: *mut Inner = &mut *self.inner;
            let prev = current_replace(Current::Stack(inner));
            // SAFETY: `co_rsp` was produced by `seed_stack` or by the
            // suspend half of `switch`; the coroutine is suspended (not live
            // anywhere), which `complete == false` plus executor ownership
            // guarantees.
            unsafe { switch(&mut (*inner).host_rsp, &(*inner).co_rsp) };
            current_set(prev);
            self.inner.complete
        }

        pub(super) fn is_complete(&self) -> bool {
            self.inner.complete
        }

        pub(super) fn take_panic(&mut self) -> Option<Box<dyn Any + Send + 'static>> {
            self.inner.panic.take()
        }
    }

    /// Coroutine-side half of the switch: save the coroutine context, resume
    /// the host.
    ///
    /// # Safety
    ///
    /// Must be called on the thread currently running this coroutine (i.e.
    /// from inside its closure), with `inner` the pointer stored in the
    /// thread's `CURRENT` slot.
    pub(super) unsafe fn suspend(inner: *mut Inner) {
        if !canary_ok(inner) {
            super::overflow_panic(Some((*inner).layout.size()));
        }
        switch(&mut (*inner).co_rsp, &(*inner).host_rsp);
    }

    impl Drop for Inner {
        fn drop(&mut self) {
            // An incomplete coroutine's interior objects are leaked with the
            // stack (documented; the executor drains every task first).
            // SAFETY: allocated in `new` with this exact layout.
            unsafe { dealloc(self.stack, self.layout) };
        }
    }
}

/// The portable thread backend: one parked OS thread per coroutine and a
/// pair of rendezvous channels standing in for the context switch.
mod thread_impl {
    use super::{current_replace, current_set, Current};
    use std::any::Any;
    use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

    enum Status {
        Yielded,
        Done(Option<Box<dyn Any + Send + 'static>>),
    }

    /// The task thread's ends of the rendezvous channels; `CURRENT` points
    /// at this (it lives on the task thread's own stack) while the closure
    /// runs.
    pub(super) struct TaskSide {
        status_tx: SyncSender<Status>,
        go_rx: Receiver<()>,
        /// Stand-in for the stack backend's base-of-stack guard slot: OS
        /// thread stacks have their own guard pages, but keeping a live
        /// canary per task gives both backends the identical
        /// clobber/check/panic contract for the `stack-overflow` fault.
        canary: std::cell::Cell<u64>,
    }

    /// Unwind payload used to cancel a task whose handle was dropped before
    /// completion: unwinds the closure (running destructors) without being
    /// reported as a real panic.
    struct Cancelled;

    pub(super) struct ThreadCoro {
        go_tx: Option<SyncSender<()>>,
        status_rx: Receiver<Status>,
        handle: Option<std::thread::JoinHandle<()>>,
        complete: bool,
        panic: Option<Box<dyn Any + Send + 'static>>,
    }

    pub(super) fn new(f: Box<dyn FnOnce() + Send + 'static>) -> ThreadCoro {
        let (go_tx, go_rx) = sync_channel::<()>(1);
        let (status_tx, status_rx) = sync_channel::<Status>(1);
        let handle = std::thread::Builder::new()
            .name("tp-exec-task".into())
            .spawn(move || {
                let task = TaskSide {
                    status_tx,
                    go_rx,
                    canary: std::cell::Cell::new(super::CANARY),
                };
                // Stay parked until the first resume (a dropped handle never
                // runs the closure at all, matching the stack backend).
                if task.go_rx.recv().is_err() {
                    return;
                }
                let prev = current_replace(Current::Thread(&task as *const TaskSide));
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
                current_set(prev);
                let payload = match outcome {
                    Ok(()) => None,
                    Err(p) if p.downcast_ref::<Cancelled>().is_some() => return,
                    Err(p) => Some(p),
                };
                let _ = task.status_tx.send(Status::Done(payload));
            })
            .expect("spawn coroutine task thread");
        ThreadCoro {
            go_tx: Some(go_tx),
            status_rx,
            handle: Some(handle),
            complete: false,
            panic: None,
        }
    }

    /// Task-side suspend: report `Yielded`, park until the next resume. A
    /// closed channel in either direction means the handle was dropped —
    /// cancel by unwinding.
    ///
    /// # Safety
    ///
    /// Must be called on the task thread owning `task` (guaranteed by
    /// `CURRENT` being thread-local).
    pub(super) unsafe fn suspend(task: *const TaskSide) {
        let task = &*task;
        if task.canary.get() != super::CANARY {
            super::overflow_panic(None);
        }
        if task.status_tx.send(Status::Yielded).is_err() {
            std::panic::panic_any(Cancelled);
        }
        if task.go_rx.recv().is_err() {
            std::panic::panic_any(Cancelled);
        }
    }

    /// Whether this task's guard canary is intact.
    ///
    /// # Safety
    ///
    /// Must be called on the task thread owning `task`.
    pub(super) unsafe fn canary_ok(task: *const TaskSide) -> bool {
        (*task).canary.get() == super::CANARY
    }

    /// Kill this task's guard canary (the `stack-overflow` fault class).
    ///
    /// # Safety
    ///
    /// Must be called on the task thread owning `task`.
    pub(super) unsafe fn clobber_canary(task: *const TaskSide) {
        (*task).canary.set(0);
    }

    impl ThreadCoro {
        pub(super) fn resume(&mut self) -> bool {
            assert!(!self.complete, "resume on a completed coroutine");
            let go = self
                .go_tx
                .as_ref()
                .expect("go channel open while incomplete");
            go.send(()).expect("task thread alive while incomplete");
            match self
                .status_rx
                .recv()
                .expect("task thread reports an outcome")
            {
                Status::Yielded => false,
                Status::Done(payload) => {
                    self.panic = payload;
                    self.complete = true;
                    if let Some(h) = self.handle.take() {
                        let _ = h.join();
                    }
                    true
                }
            }
        }

        pub(super) fn is_complete(&self) -> bool {
            self.complete
        }

        pub(super) fn take_panic(&mut self) -> Option<Box<dyn Any + Send + 'static>> {
            self.panic.take()
        }
    }

    impl Drop for ThreadCoro {
        fn drop(&mut self) {
            if !self.complete {
                // Closing the go channel makes the parked task cancel itself
                // at its current suspend point (or never start).
                self.go_tx = None;
                while self.status_rx.recv().is_ok() {}
            }
            if let Some(h) = self.handle.take() {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Both constructors under test: the process-default backend and the
    /// forced thread fallback, which must be behaviourally identical.
    fn both(f: impl Fn() -> Box<dyn FnOnce() + Send + 'static>) -> Vec<Coro> {
        vec![Coro::new(f()), Coro::thread_backed(f())]
    }

    #[test]
    fn stack_size_parse_floors_and_falls_back() {
        let default = DEFAULT_STACK_KIB * 1024;
        assert_eq!(stack_bytes_from(None), default);
        assert_eq!(stack_bytes_from(Some("lots")), default);
        assert_eq!(stack_bytes_from(Some(" 512 ")), 512 * 1024);
        assert_eq!(stack_bytes_from(Some("1")), MIN_STACK_BYTES);
        // More KiB than fit in `usize` bytes is as unusable as a typo: the
        // default, not a wrapped product clamped up to the floor.
        let huge = (usize::MAX / 1024 + 1).to_string();
        assert_eq!(stack_bytes_from(Some(&huge)), default);
        assert_eq!(stack_bytes_from(Some(&usize::MAX.to_string())), default);
    }

    #[test]
    fn resume_suspend_interleaves_with_host() {
        let make = || {
            let n = Arc::new(AtomicUsize::new(0));
            (n.clone(), n)
        };
        type Mk = fn(Box<dyn FnOnce() + Send + 'static>) -> Coro;
        for mk in [Coro::new as Mk, Coro::thread_backed as Mk] {
            let (n, n2) = make();
            let body: Box<dyn FnOnce() + Send> = Box::new(move || {
                for _ in 0..3 {
                    n2.fetch_add(1, Ordering::SeqCst);
                    suspend();
                }
            });
            let mut co = mk(body);
            assert_eq!(n.load(Ordering::SeqCst), 0, "created suspended");
            assert!(!co.resume());
            assert_eq!(n.load(Ordering::SeqCst), 1);
            assert!(!co.resume());
            assert!(!co.resume());
            assert_eq!(n.load(Ordering::SeqCst), 3);
            assert!(co.resume(), "final resume runs to completion");
            assert!(co.is_complete());
            assert!(co.take_panic().is_none());
        }
    }

    #[test]
    fn panic_payload_is_captured_not_propagated() {
        struct Marker(u32);
        for mut co in both(|| {
            Box::new(|| {
                suspend();
                std::panic::panic_any(Marker(42));
            })
        }) {
            assert!(!co.resume());
            assert!(co.resume(), "panicking resume completes the task");
            let p = co.take_panic().expect("panic captured");
            assert_eq!(p.downcast_ref::<Marker>().expect("payload intact").0, 42);
        }
    }

    #[test]
    fn coroutine_migrates_between_host_threads() {
        for mut co in both(|| {
            Box::new(|| {
                for _ in 0..8 {
                    suspend();
                }
            })
        }) {
            // Resume alternately from fresh host threads: each resume hands
            // the same task to a different OS thread.
            for _ in 0..4 {
                co = std::thread::spawn(move || {
                    assert!(!co.resume());
                    co
                })
                .join()
                .expect("host thread clean");
            }
            while !co.resume() {}
            assert!(co.is_complete());
        }
    }

    #[test]
    fn on_coroutine_tracks_context() {
        assert!(!on_coroutine(), "host code is not a coroutine");
        let saw = Arc::new(AtomicUsize::new(0));
        let saw2 = saw.clone();
        let mut co = Coro::new(move || {
            saw2.store(on_coroutine() as usize, Ordering::SeqCst);
        });
        assert!(co.resume());
        assert_eq!(saw.load(Ordering::SeqCst), 1, "inside body: on_coroutine");
        assert!(!on_coroutine(), "restored after completion");
    }

    #[test]
    fn thousand_interleaved_coroutines() {
        // The scale the executor needs: far more tasks than any sane host
        // thread count, round-robined to completion. Small explicit stacks
        // keep the test light.
        let n = 1000usize;
        let counter = Arc::new(AtomicUsize::new(0));
        let mut tasks: Vec<Coro> = (0..n)
            .map(|_| {
                let c = counter.clone();
                Coro::with_stack(MIN_STACK_BYTES, move || {
                    for _ in 0..3 {
                        c.fetch_add(1, Ordering::SeqCst);
                        suspend();
                    }
                })
            })
            .collect();
        let mut live = n;
        while live > 0 {
            for co in &mut tasks {
                if !co.is_complete() && co.resume() {
                    live -= 1;
                }
            }
        }
        assert_eq!(counter.load(Ordering::SeqCst), 3 * n);
    }

    #[test]
    fn canary_is_intact_on_healthy_coroutines_and_host() {
        assert!(canary_intact(), "host code always reports intact");
        clobber_canary(); // no-op on the host
        assert!(canary_intact());
        for mut co in both(|| {
            Box::new(|| {
                assert!(canary_intact(), "fresh coroutine starts intact");
                suspend();
                assert!(canary_intact(), "still intact after a round trip");
            })
        }) {
            assert!(!co.resume());
            assert!(co.resume());
            assert!(co.take_panic().is_none());
        }
    }

    #[test]
    fn clobbered_canary_panics_at_next_suspend_on_both_backends() {
        for mut co in both(|| {
            Box::new(|| {
                suspend();
                clobber_canary();
                assert!(!canary_intact());
                suspend(); // must raise the canonical overflow panic
                unreachable!("suspend past a dead canary");
            })
        }) {
            assert!(!co.resume());
            assert!(co.resume(), "overflow panic completes the task");
            let p = co.take_panic().expect("overflow panic captured");
            let msg = p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .expect("string panic payload");
            assert!(
                msg.starts_with("stack overflow: coroutine guard canary clobbered"),
                "canonical message, got: {msg}"
            );
        }
    }

    #[test]
    fn dropping_incomplete_coroutine_is_safe() {
        for co in both(|| {
            Box::new(|| {
                suspend();
                suspend();
            })
        }) {
            let mut co = co;
            assert!(!co.resume());
            drop(co); // mid-flight: thread backend cancels, stack backend leaks interior
        }
    }
}
