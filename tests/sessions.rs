//! Integration tests of the multi-tenant session multiplexer: admission
//! control, per-session seed reproducibility, and fault isolation between
//! tenants sharing one work-stealing pool.

use htims::core::fault::session_seed;
use htims::core::pipeline::{
    output_fingerprint, AdmissionError, Scheduler, SessionConfig, SessionManager, SessionState,
};
use htims::graph::GraphSpec;
use std::collections::BTreeMap;

fn tiny() -> GraphSpec {
    GraphSpec {
        frames: 4,
        blocks: 1,
        ..GraphSpec::small()
    }
}

fn config(spec: &GraphSpec, label: &str) -> SessionConfig {
    SessionConfig {
        label: label.to_string(),
        seed: spec.seed,
        fingerprint: spec.fingerprint(),
        fault_spec: spec.faults.clone(),
    }
}

/// Runs one batch of `n` sessions derived from `base_seed` and returns the
/// per-label output fingerprints.
fn run_batch(manager: &SessionManager, base_seed: u64, n: usize) -> BTreeMap<String, u64> {
    let mut handles = Vec::new();
    for i in 0..n {
        let spec = GraphSpec {
            seed: session_seed(base_seed, i as u64),
            ..tiny()
        };
        let pipeline = spec.build().expect("tiny spec builds");
        let handle = manager
            .admit(config(&spec, &format!("s{i}")), pipeline)
            .unwrap_or_else(|(e, _)| panic!("admission of s{i} failed: {e}"));
        handles.push(handle);
    }
    handles
        .into_iter()
        .map(|h| {
            let label = h.label().to_string();
            let out = h.join();
            assert_eq!(out.report.session.as_deref(), Some(label.as_str()));
            (label, output_fingerprint(&out.blocks))
        })
        .collect()
}

#[test]
fn same_base_seed_reproduces_every_session_bit_for_bit() {
    let manager = SessionManager::new(Scheduler::new(2), 8);
    let first = run_batch(&manager, 7, 4);
    let second = run_batch(&manager, 7, 4);
    assert_eq!(first.len(), 4);
    assert_eq!(first, second, "same base seed must reproduce each tenant");
    // Derived seeds differ per tenant, so the outputs do too.
    let distinct: std::collections::BTreeSet<u64> = first.values().copied().collect();
    assert_eq!(distinct.len(), 4, "tenant outputs collide: {first:?}");
    // A different base seed shifts every tenant.
    let other = run_batch(&manager, 8, 4);
    assert_ne!(first, other);
    // The table keeps the latest (finished) state of every label.
    let statuses = manager.statuses();
    assert_eq!(statuses.len(), 4);
    for row in statuses {
        assert_eq!(row.state, SessionState::Finished);
        assert_eq!(row.outcome.as_deref(), Some("completed"));
        assert!(row.output_fnv.is_some() && row.wall_seconds.is_some());
    }
    manager.scheduler().shutdown();
}

#[test]
fn admission_rejects_table_overflow_and_duplicate_labels() {
    let manager = SessionManager::new(Scheduler::new(1), 1);
    let spec = GraphSpec { ..tiny() };
    let first = manager
        .admit(config(&spec, "only"), spec.build().unwrap())
        .map_err(|(e, _)| e)
        .expect("first session admits");

    // The table is at its bound: the next admission is rejected with the
    // pipeline handed back intact.
    let Err((err, returned)) = manager.admit(config(&spec, "second"), spec.build().unwrap()) else {
        panic!("admission past the bound must be rejected")
    };
    assert_eq!(err, AdmissionError::TableFull { max: 1 });
    assert_eq!(manager.running(), 1);

    // Joining frees the slot; the returned pipeline is still runnable.
    let out = first.join();
    assert_eq!(out.report.outcome.as_str(), "completed");
    let second = manager
        .admit(config(&spec, "second"), returned)
        .map_err(|(e, _)| e)
        .expect("slot freed after join");

    // A label that is still running cannot be admitted twice...
    let Err((err, _)) = manager.admit(config(&spec, "second"), spec.build().unwrap()) else {
        panic!("a still-running label must be rejected")
    };
    assert_eq!(
        err,
        AdmissionError::DuplicateLabel {
            label: "second".into()
        }
    );
    assert!(second.join().report.errors.is_empty());

    // ...but a finished label is replaced (current state, not history).
    manager
        .admit(config(&spec, "second"), spec.build().unwrap())
        .map_err(|(e, _)| e)
        .expect("finished label is reusable")
        .join();
    manager.scheduler().shutdown();
}

#[test]
fn a_faulty_tenant_fails_alone_while_others_complete() {
    let manager = SessionManager::new(Scheduler::new(2), 8);
    let mut handles = Vec::new();
    for i in 0..4 {
        let mut spec = GraphSpec {
            seed: session_seed(7, i as u64),
            ..tiny()
        };
        if i == 1 {
            // One tenant's deconvolution backend fails deterministically on
            // every block.
            spec.faults = Some("deconv.fail=1".into());
        }
        let handle = manager
            .admit(config(&spec, &format!("s{i}")), spec.build().unwrap())
            .map_err(|(e, _)| e)
            .expect("admits");
        handles.push((i, handle));
    }
    for (i, handle) in handles {
        let out = handle.join();
        if i == 1 {
            // The faulty tenant is degraded (software fallback recovers the
            // blocks) — but never silently clean.
            assert_ne!(
                out.report.outcome.as_str(),
                "completed",
                "faulty tenant must not report a clean run"
            );
            assert!(out.report.faults.total() > 0);
        } else {
            assert_eq!(
                out.report.outcome.as_str(),
                "completed",
                "tenant s{i} was disturbed by s1's faults: {:?}",
                out.report.errors
            );
            assert!(out.report.errors.is_empty());
        }
    }
    manager.scheduler().shutdown();
}
