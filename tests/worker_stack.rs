//! Pool workers run on stacks sized to the register.
//!
//! The diagram recursions descend about one frame per variable, so the
//! stack an engine build or a job needs grows with the register: about
//! 840 bytes per qubit in a release build and 1,980 in a debug build.
//! On std's default 2 MiB worker stack, a ghz2000 image job aborted a
//! debug-built process ("has overflowed its stack"), and a ghz2500 one a
//! release-built process. A stack overflow aborts the whole process, so
//! this check has a test binary of its own.

use qits::{EnginePool, EngineSpec, Job};
use qits_circuit::generators;

#[test]
fn a_one_worker_pool_answers_a_ghz2000_image() {
    let pool = EnginePool::builder(EngineSpec::new(generators::ghz(2000)))
        .workers(1)
        .build()
        .unwrap();
    let out = pool.submit(Job::image()).join().unwrap();
    assert_eq!(out.image().unwrap().dim, 1);
    assert_eq!(pool.shutdown().jobs_completed, 1);
}
