//! # wmm-apps — the ten application case studies (Tab. 4)
//!
//! The paper evaluates its testing environment on ten CUDA applications
//! derived from seven code bases, all using fine-grained inter-block
//! concurrency: custom spinlocks, non-blocking queues, last-block
//! reductions, MP-style handshakes, and lock-free tree construction.
//! This crate ports each case study to the `wmm-sim` kernel IR with the
//! same communication idiom and the same functional post-condition:
//!
//! | app | idiom | post-condition |
//! |---|---|---|
//! | [`cbe_ht`] | hashtable insertion under custom spinlocks | all inserted elements present |
//! | [`cbe_dot`] | global reduction under one spinlock (Fig. 1) | GPU result = CPU reference |
//! | [`ct_octree`] | non-blocking queue feeding a tree build | all particles in the final tree |
//! | [`tpo_tm`] | task queue under a custom mutex | expected number of tasks executed |
//! | [`sdk_red`] | last-block (atomic counter) combine, fenced | GPU result = CPU reference |
//! | [`cub_scan`] | decoupled-lookback scan, MP handshakes, fenced | GPU result = CPU reference |
//! | [`ls_bh`] | CAS tree build + summary + force kernels, *insufficiently* fenced | structure & totals match reference |
//!
//! `sdk-red`, `cub-scan` and `ls-bh` ship with fences; their `-nf`
//! variants are manufactured by stripping them (Sec. 4.1), exactly as in
//! the paper.
//!
//! Beyond Tab. 4, [`shm_pipe`] is a scoped (intra-block shared-memory)
//! pipeline used to demonstrate the analyzer-seeded scoped fence
//! insertion.
//!
//! One private table lists the eleven applications by name with their
//! constructors: Tab. 4's ten in order, then `shm-pipe`. Every lookup
//! reads it. [`app_names`] lists all eleven names, [`all_apps`] builds
//! the ten of Tab. 4 (so the paper campaigns stay faithful), and
//! [`app_by_name`] builds only the application it names.

pub mod cbe_dot;
pub mod cbe_ht;
pub mod ct_octree;
pub mod cub_scan;
pub mod ls_bh;
pub mod sdk_red;
pub mod shm_pipe;
pub mod tpo_tm;

pub use cbe_dot::CbeDot;
pub use cbe_ht::CbeHt;
pub use ct_octree::CtOctree;
pub use cub_scan::CubScan;
pub use ls_bh::LsBh;
pub use sdk_red::SdkRed;
pub use shm_pipe::ShmPipe;
pub use tpo_tm::TpoTm;

use wmm_core::app::Application;

type Constructor = fn() -> Box<dyn Application>;

/// Every application by name: Tab. 4's ten in order, then `shm-pipe`.
const APPS: [(&str, Constructor); 11] = [
    ("cbe-ht", || Box::new(CbeHt::new())),
    ("cbe-dot", || Box::new(CbeDot::new())),
    ("ct-octree", || Box::new(CtOctree::new())),
    ("tpo-tm", || Box::new(TpoTm::new())),
    ("sdk-red", || Box::new(SdkRed::new(true))),
    ("sdk-red-nf", || Box::new(SdkRed::new(false))),
    ("cub-scan", || Box::new(CubScan::new(true))),
    ("cub-scan-nf", || Box::new(CubScan::new(false))),
    ("ls-bh", || Box::new(LsBh::new(true))),
    ("ls-bh-nf", || Box::new(LsBh::new(false))),
    ("shm-pipe", || Box::new(ShmPipe::new())),
];

/// How many of [`APPS`] are Tab. 4's.
const TAB4: usize = 10;

/// The ten case studies in Tab. 4's order.
pub fn all_apps() -> Vec<Box<dyn Application>> {
    APPS[..TAB4].iter().map(|(_, make)| make()).collect()
}

/// Every application's name: Tab. 4's ten in order, then the scoped
/// demonstration workload `shm-pipe`. Builds nothing.
pub fn app_names() -> impl Iterator<Item = &'static str> {
    APPS.iter().map(|&(name, _)| name)
}

/// Build the application named `name` (one of [`app_names`]: a Tab. 4
/// short name such as `"cbe-dot"` or `"ls-bh-nf"`, or `"shm-pipe"`),
/// and only that one.
pub fn app_by_name(name: &str) -> Option<Box<dyn Application>> {
    APPS.iter()
        .find(|&&(n, _)| n == name)
        .map(|(_, make)| make())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_apps_with_table_4_names() {
        let names: Vec<String> = all_apps().iter().map(|a| a.name().to_string()).collect();
        for expect in [
            "cbe-ht",
            "cbe-dot",
            "ct-octree",
            "tpo-tm",
            "sdk-red",
            "sdk-red-nf",
            "cub-scan",
            "cub-scan-nf",
            "ls-bh",
            "ls-bh-nf",
        ] {
            assert!(names.iter().any(|n| n == expect), "missing {expect}");
        }
        assert_eq!(names.len(), 10);
    }

    #[test]
    fn lookup_by_name() {
        assert!(app_by_name("cbe-dot").is_some());
        assert!(app_by_name("ls-bh-nf").is_some());
        assert!(app_by_name("nope").is_none());
        // The scoped demo app resolves by name but stays out of the
        // Tab. 4 set.
        assert!(app_by_name("shm-pipe").is_some());
        assert!(all_apps().iter().all(|a| a.name() != "shm-pipe"));
        // Every listed name builds the application of that name, and
        // the list is Tab. 4's ten in order, then shm-pipe.
        for name in app_names() {
            assert_eq!(app_by_name(name).unwrap().name(), name);
        }
        let tab4: Vec<String> = all_apps().iter().map(|a| a.name().to_string()).collect();
        assert!(app_names().take(10).eq(tab4.iter().map(String::as_str)));
        assert_eq!(app_names().skip(10).collect::<Vec<_>>(), ["shm-pipe"]);
    }

    #[test]
    fn fenced_apps_contain_fences_and_nf_do_not() {
        for (name, fences) in [
            ("sdk-red", true),
            ("cub-scan", true),
            ("ls-bh", true),
            ("sdk-red-nf", false),
            ("cub-scan-nf", false),
            ("ls-bh-nf", false),
            ("cbe-dot", false),
            ("cbe-ht", false),
        ] {
            let app = app_by_name(name).unwrap();
            assert_eq!(app.spec().fence_count() > 0, fences, "{name}");
        }
    }
}
