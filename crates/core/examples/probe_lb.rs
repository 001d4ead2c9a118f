//! Diagnostic: LB outcome histogram and bypass counts under pinned stress.
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use wmm_core::stress::{litmus_stress_threads, Scratchpad, StressArtifacts};
use wmm_gen::Shape;
use wmm_litmus::{LitmusLayout, LitmusOutcome};
use wmm_sim::chip::Chip;
use wmm_sim::exec::Gpu;

fn main() {
    let chip = Chip::by_short("Titan").unwrap();
    let pad = Scratchpad::new(2048, 2048);
    let seq = chip.preferred_seq.clone();
    for (t, l) in [(Shape::Lb, 64u32), (Shape::Mp, 64), (Shape::Sb, 64)] {
        let inst = t.instance(LitmusLayout::standard(64, pad.required_words()));
        let artifacts = StressArtifacts::pinned(pad, &seq, &[l], 40);
        let mut gpu = Gpu::new(chip.clone());
        let mut hist = wmm_litmus::Histogram::new();
        let mut total_byp = 0u64;
        let mut app_turns = 0u64;
        for i in 0..300u64 {
            let mut rng = SmallRng::seed_from_u64(i * 77 + 1);
            let threads = litmus_stress_threads(&chip, &mut rng);
            let s = artifacts.make(threads, &mut rng);
            let spec = inst.launch(s.groups, s.init, false);
            let r = gpu.run(&spec, rng.gen());
            total_byp += r.channels.window();
            app_turns += r.app_turns;
            let obs = inst.observe(&r);
            let weak = inst.is_weak(&obs);
            hist.record(LitmusOutcome {
                obs,
                weak,
                channels: r.channels,
            });
        }
        println!(
            "{t}: avg bypasses/run = {:.2}, avg app_turns = {}, channels = {}",
            total_byp as f64 / 300.0,
            app_turns / 300,
            hist.channels()
        );
        println!("{}", inst.display_histogram(&hist));
    }
}
