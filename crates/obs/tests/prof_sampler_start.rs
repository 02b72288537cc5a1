//! The profiler registers its `prof.sample_passes` counter when the
//! sampler starts, not on its first pass, so whether a short run lists
//! it does not depend on timing. The sampler is process-global, so this
//! file holds a single test.

use ims_obs::{metrics, prof};

#[test]
fn the_sample_pass_counter_is_listed_as_soon_as_the_sampler_starts() {
    let listed = || {
        metrics::snapshot()
            .counters
            .iter()
            .any(|c| c.name == "prof.sample_passes")
    };
    assert!(!listed(), "listed before any worker registered");
    let _worker = prof::register_worker();
    assert_eq!(listed(), prof::enabled());
}
