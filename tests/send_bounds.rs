//! Compile-time thread-safety contract of the session stack.
//!
//! `EnginePool` moves whole `Engine` sessions onto worker threads and
//! shares a system's `Arc`-held operations between them. Both rely on
//! auto-derived `Send`/`Sync`: nothing in the stack may grow an `Rc`,
//! `RefCell`, raw pointer, or other thread-affine field.
//! These assertions make such a regression a **compile error in this test
//! target** — with a named witness per type — rather than a distant
//! trait-bound failure inside the pool internals.

use qits::{
    Engine, EnginePool, EngineSpec, ImageStats, Job, JobHandle, JobOutput, Operations, PoolStats,
    QitsError, QuantumTransitionSystem, Strategy, Subspace, WorkerStats,
};
use qits_tdd::{Edge, GcPolicy, ManagerStats, TddManager};

fn assert_send<T: Send>() {}
fn assert_sync<T: Sync>() {}

#[test]
fn session_types_are_send() {
    // The tentpole four: a future Rc/RefCell in any of them fails here.
    assert_send::<Engine>();
    assert_send::<TddManager>();
    assert_send::<Subspace>();
    assert_send::<QuantumTransitionSystem>();
}

#[test]
fn shared_read_side_is_sync() {
    // Shareable by reference across threads: `Operations` is the
    // Arc-shared read view of a system, and a manager and its handles
    // carry no interior mutability, so read-only borrows may cross too.
    assert_sync::<TddManager>();
    assert_sync::<Operations>();
    assert_sync::<Subspace>();
    assert_sync::<Edge>();
    assert_sync::<ManagerStats>();
    assert_sync::<GcPolicy>();
}

#[test]
fn serving_vocabulary_is_send() {
    // Everything that crosses the pool's queue or comes back over a
    // result channel.
    assert_send::<EngineSpec>();
    assert_sync::<EngineSpec>();
    assert_send::<Job>();
    assert_send::<JobOutput>();
    assert_send::<JobHandle>();
    assert_send::<QitsError>();
    assert_send::<ImageStats>();
    assert_send::<PoolStats>();
    assert_send::<WorkerStats>();
    assert_send::<EnginePool>();
}

#[test]
fn strategy_objects_are_send() {
    // `Engine` and `EngineSpec` hold the kernel choice by value.
    assert_send::<Strategy>();
    assert_sync::<Strategy>();
}

#[test]
fn an_engine_actually_crosses_a_thread() {
    // The runtime twin of the static assertions: build a session here,
    // move it onto another thread, compute there, hand it back.
    let spec = EngineSpec::new(qits_circuit::generators::grover(3));
    let mut engine = spec.build().unwrap();
    let handle = std::thread::spawn(move || {
        let (img, _) = engine.image().unwrap();
        (engine, img.dim())
    });
    let (mut engine, dim) = handle.join().unwrap();
    assert_eq!(dim, 2);
    // Still usable on the original thread after the round trip.
    assert!(engine.image().is_ok());
}
