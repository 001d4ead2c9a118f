//! A concurrent, structurally-keyed cache of what campaign jobs would
//! otherwise recompute per job: [`StressArtifacts`], and each
//! application's calibrated stressing-loop length.
//!
//! The campaign server drains a queue where a thousand jobs may target
//! only five environments; compiling the stress kernels per *job* would
//! reintroduce (at the job granularity) exactly the per-run compilation
//! cost [`StressArtifacts`] exists to kill. This cache closes the gap:
//! artifacts are built once per distinct [`ArtifactKey`] — chip ×
//! [`Environment`] × scratchpad × stressing-loop length — and shared
//! (as `Arc`s) by every job that keys to them, whether submitted
//! through the server or driven by the one-shot suite runner.
//!
//! An application job also sizes its stressing loops from one native
//! run of its kernel (Sec. 4.2; [`AppHarness`]). That length is a pure
//! function of the chip and the [`AppSpec`], so the cache memoizes it
//! too, keyed structurally on chip × spec: [`AppHarness::with_cache`]
//! runs the kernel natively once per key, where [`AppHarness::new`]
//! runs it for every harness.
//!
//! Keying is **structural** ([`Environment`]'s `Eq`/`Hash` compare the
//! strategy's tuned parameters, not its display name), so `sys-str+`
//! tuned for the Titan and `sys-str+` tuned for the GTX 980 occupy
//! separate entries while two independently constructed but identical
//! environments share one.
//!
//! Sharing never changes results: [`StressArtifacts::make`] draws the
//! per-run values from the *run's* RNG, so a campaign over a cache-hit
//! artifact set is bit-identical to one that built its own, and a
//! memoized calibration is the very `u32` the native run computed
//! (pinned by `tests/server_equivalence.rs`). The `rand-str` strategy
//! keeps its documented exception at the kernel level — its artifact
//! *object* is cacheable (it holds no compiled program), but `make`
//! bakes a fresh seed into the kernel every run, so no compiled
//! `rand-str` program is ever shared between runs.

use crate::app::AppSpec;
use crate::env::{AppHarness, Environment};
use crate::stress::{Scratchpad, StressArtifacts};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use wmm_obs::LatencyHistogram;
use wmm_sim::chip::Chip;

/// Everything [`StressArtifacts::for_strategy`] reads: the cache key
/// under which built artifacts are shared.
///
/// `PartialEq` is fully structural (derived). `Eq` is implemented by
/// hand because [`Chip`] carries `f64` profile parameters — the chip
/// table's constants are never `NaN`, so equality is an equivalence
/// here. `Hash` covers a discriminating subset of the chip (its short
/// name and the two structure fields the stress kernels read) plus the
/// full environment/pad/iters; equal keys hash equal, and the rare
/// collision is resolved by `Eq`.
#[derive(Debug, Clone, PartialEq)]
pub struct ArtifactKey {
    /// The chip the strategy's kernels are sized for.
    pub chip: Chip,
    /// The testing environment (strategy + randomisation + shared
    /// stress).
    pub env: Environment,
    /// The scratchpad the stressing kernels target.
    pub pad: Scratchpad,
    /// Stressing-loop iteration count.
    pub iters: u32,
}

impl Eq for ArtifactKey {}

impl Hash for ArtifactKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.chip.short.hash(state);
        self.chip.l2_scaled_words.hash(state);
        self.chip.patch_words.hash(state);
        self.env.hash(state);
        self.pad.hash(state);
        self.iters.hash(state);
    }
}

impl ArtifactKey {
    /// The key of `env`'s artifacts on `chip`, sized to `pad` and
    /// `iters`.
    pub fn new(chip: &Chip, env: &Environment, pad: Scratchpad, iters: u32) -> Self {
        ArtifactKey {
            chip: chip.clone(),
            env: env.clone(),
            pad,
            iters,
        }
    }

    /// Build the artifacts this key describes — the one place an
    /// environment becomes stress artifacts, whether for the cache, a
    /// campaign builder or an application harness, so a hit and a fresh
    /// build are the same value by construction.
    pub fn build(&self) -> StressArtifacts {
        StressArtifacts::for_strategy(&self.chip, &self.env.stress, self.pad, self.iters)
            .with_shared_stress(self.env.shared)
    }
}

/// Everything an application's native calibration run reads: the key
/// under which its stressing-loop length is memoized.
///
/// Like [`ArtifactKey`], `PartialEq` is fully structural and `Eq` holds
/// because the chip table's `f64`s are never `NaN`. `Hash` covers the
/// chip's short name and a discriminating subset of the spec (its name,
/// memory size and each phase's instruction count, which an added fence
/// changes); the rare collision is resolved by `Eq`.
#[derive(Debug, PartialEq)]
struct CalibrationKey {
    chip: Chip,
    spec: AppSpec,
}

impl Eq for CalibrationKey {}

impl Hash for CalibrationKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.chip.short.hash(state);
        self.spec.name.hash(state);
        self.spec.global_words.hash(state);
        for phase in &self.spec.phases {
            phase.program.len().hash(state);
        }
    }
}

/// Counters describing a cache's history, for a served batch's summary
/// and the exactly-once-compile assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Artifact lookups served from an existing entry.
    pub hits: u64,
    /// Artifact lookups that built (and inserted) a new entry.
    pub builds: u64,
    /// Artifact entries currently resident.
    pub entries: usize,
    /// Native calibration runs: one per distinct chip × application
    /// spec looked up. Calibration lookups move no other counter.
    pub calibrations: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.builds
    }

    /// Fraction of lookups served from cache (0 when never consulted).
    pub fn hit_rate(&self) -> f64 {
        let n = self.lookups();
        if n == 0 {
            0.0
        } else {
            self.hits as f64 / n as f64
        }
    }
}

/// Concurrent map from [`ArtifactKey`] to shared, immutable
/// [`StressArtifacts`], plus a memo from chip × application spec to the
/// calibrated stressing-loop length.
///
/// `get` builds missing entries *under the map lock*: when sixteen
/// workers race for a cold key, one compiles and fifteen wait, rather
/// than sixteen compiling and fifteen discarding — artifact compilation
/// is the expensive step the cache exists to deduplicate, so the
/// held-lock build is the point, not an accident. The calibration memo
/// does the same under its own lock, so a calibration never holds up an
/// artifact lookup.
#[derive(Debug, Default)]
pub struct ArtifactCache {
    map: Mutex<HashMap<ArtifactKey, Arc<StressArtifacts>>>,
    hits: AtomicU64,
    builds: AtomicU64,
    calibrated: Mutex<HashMap<CalibrationKey, u32>>,
    calibrations: AtomicU64,
    /// Wall-clock artifact-compile durations (one sample per build).
    /// Telemetry only — never folded into any deterministic digest.
    compile: Mutex<LatencyHistogram>,
}

impl ArtifactCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The artifacts for an environment on a chip, built (once) with the
    /// given scratchpad and stressing-loop length.
    pub fn get(
        &self,
        chip: &Chip,
        env: &Environment,
        pad: Scratchpad,
        iters: u32,
    ) -> Arc<StressArtifacts> {
        let key = ArtifactKey::new(chip, env, pad, iters);
        let mut map = self.map.lock().expect("artifact cache poisoned");
        if let Some(hit) = map.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(hit);
        }
        self.builds.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let built = Arc::new(key.build());
        self.compile
            .lock()
            .expect("compile histogram poisoned")
            .record(started.elapsed());
        map.insert(key, Arc::clone(&built));
        built
    }

    /// The calibrated stressing-loop length of `harness`'s chip and
    /// spec, from one native run on the first request.
    pub(crate) fn calibration(&self, harness: &AppHarness<'_>) -> u32 {
        let key = CalibrationKey {
            chip: harness.chip().clone(),
            spec: harness.spec().clone(),
        };
        let mut memo = self.calibrated.lock().expect("calibration memo poisoned");
        if let Some(&iters) = memo.get(&key) {
            return iters;
        }
        self.calibrations.fetch_add(1, Ordering::Relaxed);
        let iters = harness.calibrate();
        memo.insert(key, iters);
        iters
    }

    /// Hit/build counters, current entry count and calibration runs.
    pub fn stats(&self) -> CacheStats {
        let entries = self.map.lock().expect("artifact cache poisoned").len();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            builds: self.builds.load(Ordering::Relaxed),
            entries,
            calibrations: self.calibrations.load(Ordering::Relaxed),
        }
    }

    /// Snapshot of the wall-clock artifact-compile latency histogram
    /// (one sample per build; empty when every lookup hit).
    pub fn compile_times(&self) -> LatencyHistogram {
        self.compile
            .lock()
            .expect("compile histogram poisoned")
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::Application;
    use crate::env::tests::lock_counter;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::sync::Barrier;
    use wmm_sim::ir::FenceLevel;

    fn chip() -> Chip {
        Chip::by_short("Titan").unwrap()
    }

    fn pad() -> Scratchpad {
        Scratchpad::new(2048, 2048)
    }

    #[test]
    fn structurally_equal_environments_share_an_entry() {
        let c = chip();
        let cache = ArtifactCache::new();
        // Two independently constructed — but structurally identical —
        // environments.
        let a = Environment::sys_str_plus(&c);
        let b = Environment::sys_str_plus(&c);
        assert_eq!(a, b);
        let arta = cache.get(&c, &a, pad(), 40);
        let artb = cache.get(&c, &b, pad(), 40);
        assert!(Arc::ptr_eq(&arta, &artb), "equal keys must share an entry");
        let s = cache.stats();
        assert_eq!((s.builds, s.hits, s.entries), (1, 1, 1));
    }

    #[test]
    fn same_name_different_tuning_does_not_share() {
        // `sys-str+` for the Titan and for the GTX 980 print identically
        // but carry different tuned parameters (patch 32 vs 64, different
        // access sequences): distinct environments, distinct entries.
        let t = chip();
        let m = Chip::by_short("980").unwrap();
        let et = Environment::sys_str_plus(&t);
        let em = Environment::sys_str_plus(&m);
        assert_eq!(et.name(), em.name());
        assert_ne!(et, em);
        let cache = ArtifactCache::new();
        let at = cache.get(&t, &et, pad(), 40);
        let am = cache.get(&m, &em, pad(), 40);
        assert!(!Arc::ptr_eq(&at, &am));
        assert_eq!(cache.stats().builds, 2);
    }

    #[test]
    fn same_tuning_on_different_chips_still_keys_separately() {
        // Titan and K20 share Tab. 2 tuning, so their `sys-str+`
        // environments compare *equal* — but the artifact key carries
        // the chip (kernels are sized to it), so the cache still holds
        // one entry per chip.
        let t = chip();
        let k = Chip::by_short("K20").unwrap();
        let et = Environment::sys_str_plus(&t);
        let ek = Environment::sys_str_plus(&k);
        assert_eq!(et, ek);
        let cache = ArtifactCache::new();
        let at = cache.get(&t, &et, pad(), 40);
        let ak = cache.get(&k, &ek, pad(), 40);
        assert!(!Arc::ptr_eq(&at, &ak));
        assert_eq!(cache.stats().builds, 2);
    }

    #[test]
    fn key_dimensions_are_all_discriminating() {
        let c = chip();
        let cache = ArtifactCache::new();
        let env = Environment::sys_str_plus(&c);
        let _ = cache.get(&c, &env, pad(), 40);
        let _ = cache.get(&c, &env, pad(), 60); // iters differ
        let _ = cache.get(&c, &env, Scratchpad::new(4096, 2048), 40); // pad differs
        let _ = cache.get(&c, &Environment::shared_sys_str_plus(&c), pad(), 40); // shared differs
        let s = cache.stats();
        assert_eq!((s.builds, s.hits, s.entries), (4, 0, 4));
    }

    #[test]
    fn rand_str_kernels_are_never_shared_across_runs() {
        // The cache may hold the `rand-str` artifact *object* (it keeps
        // no compiled program), but every `make` bakes a fresh seed into
        // the kernel: no compiled program crosses runs. Contrast with
        // `sys-str`, whose compiled kernel is exactly what's shared.
        let c = chip();
        let cache = ArtifactCache::new();
        let rand_env = Environment {
            stress: crate::stress::StressStrategy::Random,
            randomize: true,
            shared: None,
        };
        let art = cache.get(&c, &rand_env, pad(), 40);
        let mut rng = SmallRng::seed_from_u64(11);
        let a = art.make(256, &mut rng);
        let b = art.make(256, &mut rng);
        assert!(
            !Arc::ptr_eq(&a.groups[0].program, &b.groups[0].program),
            "rand-str must rebuild its kernel per run"
        );

        let sys = cache.get(&c, &Environment::sys_str_plus(&c), pad(), 40);
        let sa = sys.make(256, &mut rng);
        let sb = sys.make(256, &mut rng);
        assert!(
            Arc::ptr_eq(&sa.groups[0].program, &sb.groups[0].program),
            "sys-str kernels are compiled once and shared"
        );
    }

    #[test]
    fn cached_build_equals_uncached_build() {
        let c = chip();
        let env = Environment::sys_str_plus(&c);
        let cache = ArtifactCache::new();
        let cached = cache.get(&c, &env, pad(), 40);
        let fresh = ArtifactKey::new(&c, &env, pad(), 40).build();
        let mut r1 = SmallRng::seed_from_u64(3);
        let mut r2 = SmallRng::seed_from_u64(3);
        let a = cached.make(300, &mut r1);
        let b = fresh.make(300, &mut r2);
        assert_eq!(a.init, b.init);
        assert_eq!(a.groups[0].blocks, b.groups[0].blocks);
        assert_eq!(
            a.groups[0].program.to_string(),
            b.groups[0].program.to_string()
        );
    }

    #[test]
    fn compile_times_sample_builds_not_hits() {
        let c = chip();
        let cache = ArtifactCache::new();
        let env = Environment::sys_str_plus(&c);
        assert!(cache.compile_times().is_empty());
        let _ = cache.get(&c, &env, pad(), 40);
        let _ = cache.get(&c, &env, pad(), 40); // hit: no new sample
        assert_eq!(cache.compile_times().count(), 1);
    }

    #[test]
    fn concurrent_cold_lookups_build_once() {
        let c = chip();
        let cache = ArtifactCache::new();
        let env = Environment::sys_str_plus(&c);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let _ = cache.get(&c, &env, pad(), 40);
                });
            }
        });
        let st = cache.stats();
        assert_eq!(st.builds, 1, "racing workers must not duplicate builds");
        assert_eq!(st.hits, 7);
    }

    #[test]
    fn racing_workers_calibrate_a_cold_key_once() {
        let c = chip();
        let app = lock_counter();
        let cache = ArtifactCache::new();
        let start = Barrier::new(8);
        let iters: Vec<u32> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        AppHarness::with_cache(&c, &app, &cache).calibrated_iters()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(cache.stats().calibrations, 1, "racing workers recalibrated");
        let now = AppHarness::new(&c, &app).calibrated_iters();
        assert_eq!(iters, vec![now; 8]);
    }

    #[test]
    fn calibrations_key_on_the_chip_and_the_spec() {
        let titan = chip();
        let c2075 = Chip::by_short("C2075").unwrap();
        let app = lock_counter();
        let shipped = app.spec().clone();
        let site = shipped.fence_sites()[0];
        let fenced = shipped.with_leveled_fences(&[(site, FenceLevel::Device)]);
        assert_ne!(fenced, shipped);
        let cache = ArtifactCache::new();
        for (chip, spec) in [
            (&titan, &shipped),
            (&c2075, &shipped),
            (&titan, &fenced),
            (&titan, &shipped),
        ] {
            let h = AppHarness::uncalibrated(chip, &app, spec.clone());
            assert_eq!(cache.calibration(&h), h.calibrate(), "{}", chip.short);
        }
        assert_eq!(cache.stats().calibrations, 3);
    }

    #[test]
    fn calibration_lookups_move_no_artifact_counter() {
        let c = chip();
        let app = lock_counter();
        let cache = ArtifactCache::new();
        let env = Environment::sys_str_plus(&c);
        let _ = cache.get(&c, &env, pad(), 40);
        let _ = cache.get(&c, &env, pad(), 40);
        let before = cache.stats();
        for _ in 0..3 {
            let _ = AppHarness::with_cache(&c, &app, &cache);
        }
        let after = cache.stats();
        assert_eq!(
            after,
            CacheStats {
                calibrations: 1,
                ..before
            }
        );
        assert_eq!(after.hit_rate(), before.hit_rate());
    }
}
