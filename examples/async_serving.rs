//! Async serving: the non-blocking front over an `EnginePool` —
//! streamed results, priorities, deadlines, cancellation, and the
//! fleet-wide result memo.
//!
//! Where `examples/serving.rs` submits a batch and joins in order, this
//! example drives the pool through a [`qits::ServiceHandle`]: callers
//! get a [`qits::JobTicket`] back immediately, consume results in
//! *completion* order, attach priorities and deadlines per job, cancel
//! in-flight work cooperatively at its next safepoint poll, and let duplicate
//! queries be answered from a shared [`qits::ResultMemo`] without
//! touching a worker. Tickets are also plain `Future`s — the tail of
//! the example awaits one from a ten-line hand-rolled executor, no
//! async runtime in sight.
//!
//! Run with: `cargo run --example async_serving`

use std::future::Future;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::Duration;

use qits::serve::{JobRequest, Priority};
use qits::{CancelToken, EnginePool, EngineSpec, Job, JobTicket, QitsError, Strategy};
use qits_circuit::generators;

/// A minimal single-future executor: park the thread until the ticket's
/// waker fires. This is all `JobTicket: Future` needs — any real
/// runtime's waker works the same way.
fn block_on<F: Future>(fut: F) -> F::Output {
    struct ThreadWaker(std::thread::Thread);
    impl Wake for ThreadWaker {
        fn wake(self: Arc<Self>) {
            self.0.unpark();
        }
    }
    let waker = Waker::from(Arc::new(ThreadWaker(std::thread::current())));
    let mut cx = Context::from_waker(&waker);
    let mut fut = std::pin::pin!(fut);
    loop {
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(v) => return v,
            Poll::Pending => std::thread::park(),
        }
    }
}

fn main() {
    let system = generators::qrw(4, 0.125);
    println!("system: {} ({} qubits)", system.name, system.n_qubits);

    let spec = EngineSpec::new(system).strategy(Strategy::Contraction { k1: 2, k2: 2 });
    let pool = EnginePool::builder(spec)
        .workers(4)
        .memo_capacity(256)
        .build()
        .expect("well-formed spec");
    let handle = pool.handle();
    println!(
        "pool: {} workers behind a cloneable ServiceHandle\n",
        handle.workers()
    );

    // --- Cancellation: the token trips at the 3rd safepoint poll of the
    // running computation, and the worker unwinds cooperatively.
    // This runs first: once a worker has answered a reachability job it
    // answers the next ones from its session's fixpoint chain, computing
    // (and polling) nothing a token could interrupt.
    let token = CancelToken::cancel_after(3);
    let cancelled = handle
        .try_submit(JobRequest::new(Job::reachability(64)).cancel_token(token.clone()))
        .unwrap();
    assert_eq!(cancelled.join().unwrap_err(), QitsError::Cancelled);
    println!(
        "cancel:   mid-run token tripped after {} safepoint polls\n",
        token.polls()
    );

    // --- Streamed results: submit a mixed-priority burst, consume in
    // completion order. The handle never blocks the submitting thread.
    let mut inflight: Vec<(usize, JobTicket)> = (0..8)
        .map(|i| {
            let priority = [Priority::High, Priority::Normal, Priority::Low][i % 3];
            let job = if i % 2 == 0 {
                Job::image()
            } else {
                Job::reachability(16)
            };
            let ticket = handle
                .try_submit(JobRequest::new(job).priority(priority))
                .expect("queue is unbounded here");
            (i, ticket)
        })
        .collect();
    while !inflight.is_empty() {
        inflight.retain_mut(|(i, ticket)| match ticket.try_join() {
            None => true,
            Some(result) => {
                let latency = ticket.latency().unwrap_or_default();
                match result {
                    Ok(out) => {
                        if let Some(img) = out.image() {
                            println!("job {i}: image dim {} ({latency:.1?})", img.dim);
                        } else if let Some(r) = out.reachability() {
                            println!(
                                "job {i}: reachable dim {} in {} iterations ({latency:.1?})",
                                r.dim, r.iterations
                            );
                        }
                    }
                    Err(e) => println!("job {i}: FAILED — {e}"),
                }
                false
            }
        });
        std::thread::sleep(Duration::from_micros(200));
    }

    // --- Deadlines: a job whose budget is already spent is shed at
    // dequeue with `DeadlineExpired`; a worker never touches it.
    let doomed = handle
        .try_submit(JobRequest::new(Job::reachability(999)).deadline(Duration::ZERO))
        .unwrap();
    assert_eq!(doomed.join().unwrap_err(), QitsError::DeadlineExpired);
    println!("\ndeadline: zero-budget job shed before running");

    // --- The memo: the second identical query is answered from the
    // fleet-wide cache — bit-identical output, no worker involved.
    let first = handle.submit(Job::Image { densify: true }).join().unwrap();
    let second = handle.submit(Job::Image { densify: true }).join().unwrap();
    assert_eq!(
        first.image().unwrap().amplitudes,
        second.image().unwrap().amplitudes
    );
    println!("memo:     duplicate image served from cache, bit-identical");

    // --- Tickets are futures: await one from the minimal executor.
    let awaited = block_on(handle.submit(Job::image())).unwrap();
    println!(
        "await:    image dim {} via `impl Future`",
        awaited.image().unwrap().dim
    );

    let stats = pool.shutdown();
    println!(
        "\nstats: {} submitted, {} completed, {} cancelled, {} expired; \
         memo {} hits / {} misses",
        stats.jobs_submitted,
        stats.jobs_completed,
        stats.jobs_cancelled,
        stats.jobs_expired,
        stats.memo.hits,
        stats.memo.misses,
    );
    assert_eq!(stats.jobs_failed, 0);
    assert!(stats.memo.hits >= 1);
}
