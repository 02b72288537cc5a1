//! The profiler's tag table at its cap. The table is process-global, so
//! this file holds a single test and nothing else interns tags here.

use ims_obs::prof;
use std::collections::HashSet;

/// The documented cap on distinct tag ids, the idle and overflow ids
/// included.
const MAX_TAGS: usize = 4096;

#[test]
fn interns_past_the_cap_fold_into_the_overflow_bucket() {
    let first = prof::intern_tag("-", "tag-cap-first", "-");
    let ids: Vec<u32> = (0..MAX_TAGS + 100)
        .map(|i| prof::intern_tag("s-cap", "tag-cap", &format!("m{i}")))
        .collect();

    // Every id from the first repeat on is the one overflow id.
    let overflow = *ids.last().expect("interned");
    let cut = ids
        .iter()
        .position(|&id| id == overflow)
        .expect("cap reached");
    assert!(
        ids[cut..].iter().all(|&id| id == overflow),
        "{:?}",
        &ids[cut..]
    );
    // Before it, each tag got an id of its own, up to the cap.
    let distinct: HashSet<u32> = ids[..cut].iter().copied().collect();
    assert_eq!(distinct.len(), cut);
    assert!(!distinct.contains(&first) && !distinct.contains(&overflow));
    assert_eq!(ids[cut - 1] as usize, MAX_TAGS - 1, "ids fill the table");
    assert!(overflow != first && overflow > 0);

    // A tag interned before the cap keeps its id; a new one overflows.
    assert_eq!(prof::intern_tag("-", "tag-cap-first", "-"), first);
    assert_eq!(prof::intern_tag("-", "tag-cap-new", "-"), overflow);

    // A sample charged to the overflow id is reported under `overflow`.
    let guard = prof::register_worker();
    guard.slot().set_tag(overflow);
    prof::sample_now(1_000_000);
    guard.slot().clear_tag();
    let snap = prof::snapshot();
    let bucket = snap
        .tags
        .iter()
        .find(|t| t.stage == "overflow")
        .expect("overflow bucket sampled");
    assert!(
        bucket.samples >= 1 && bucket.cpu_ns >= 1_000_000,
        "{bucket:?}"
    );
    assert!(
        !snap.tags.iter().any(|t| t.stage == "tag-cap-new"),
        "an overflowed tag has no entry of its own"
    );
}
