//! The DMP pre-plan cache, observed through the process-global
//! `dmp.pre_plan_cache_hits` counter. A test binary of its own: any other
//! test inferring on a DMP engine in this process while the capture window
//! is open would add its own hits to the counter.

use sod2_device::DeviceProfile;
use sod2_frameworks::{Engine, Sod2Engine, Sod2Options};
use sod2_models::{codebert, ModelScale};
use sod2_prng::rngs::StdRng;
use sod2_prng::SeedableRng;

/// Only DMP engines keep pre-plans: repeat bindings hit the cache with
/// DMP on — each run says whether it hit — and an engine without DMP
/// neither caches nor counts hits.
#[test]
fn pre_plan_cache_serves_only_dmp_engines() {
    let model = codebert(ModelScale::Tiny);
    let inputs = model.make_inputs(48, &mut StdRng::seed_from_u64(3));
    let hits = |dmp: bool| {
        let opts = Sod2Options {
            dmp,
            ..Default::default()
        };
        let p = DeviceProfile::s888_cpu();
        let mut e = Sod2Engine::new(model.graph.clone(), p, opts, &Default::default());
        let _session = sod2_obs::session_guard();
        sod2_obs::set_enabled(true);
        sod2_obs::begin();
        let runs: Vec<bool> = (0..3)
            .map(|_| e.infer(&inputs).expect("infer").pre_plan_hit)
            .collect();
        let profile = sod2_obs::take();
        sod2_obs::set_enabled(false);
        (
            runs,
            profile.counters.get("dmp.pre_plan_cache_hits").copied(),
        )
    };
    assert_eq!(hits(true), (vec![false, true, true], Some(2)));
    assert_eq!(hits(false), (vec![false; 3], None));
}
