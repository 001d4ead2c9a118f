//! Fig. 5 — the cost of fences: runtime and energy under `no`, `emp`
//! (empirically inserted) and `cons` (after every access) fencing.

use crate::{table6, Scale};
use wmm_apps::app_by_name;
use wmm_core::app::AppSpec;
use wmm_core::env::{AppHarness, Environment, RunVerdict};
use wmm_sim::chip::Chip;

/// One scatter point: a chip/application combination.
#[derive(Debug, Clone)]
pub struct Point {
    /// Chip short name.
    pub chip: String,
    /// Application name.
    pub app: String,
    /// Mean runtime (ms) for no / emp / cons fences.
    pub runtime_ms: [f64; 3],
    /// Mean energy (J), when the chip supports power queries.
    pub energy_j: Option<[f64; 3]>,
}

impl Point {
    /// Percentage overhead of emp fences over no fences (runtime).
    pub fn emp_overhead(&self) -> f64 {
        100.0 * (self.runtime_ms[1] / self.runtime_ms[0] - 1.0)
    }

    /// Percentage overhead of cons fences over no fences (runtime).
    pub fn cons_overhead(&self) -> f64 {
        100.0 * (self.runtime_ms[2] / self.runtime_ms[0] - 1.0)
    }
}

/// Benchmark one fencing variant natively (no testing environment),
/// averaging runtime/energy over passing runs, as in Sec. 6.
fn measure(
    chip: &Chip,
    app: &dyn wmm_core::app::Application,
    spec: AppSpec,
    runs: u32,
    seed: u64,
) -> (f64, Option<f64>) {
    let h = AppHarness::with_spec(chip, app, spec);
    let env = Environment::native();
    let mut time = 0.0;
    let mut energy = 0.0;
    let mut n = 0u32;
    for i in 0..runs {
        let out = h.run_once(&env, seed.wrapping_add(u64::from(i)));
        // The paper records results only for runs that pass the
        // post-condition (native weak failures are rare).
        if out.verdict == RunVerdict::Pass {
            time += out.runtime_ms;
            energy += out.energy_j.unwrap_or(0.0);
            n += 1;
        }
    }
    let n = n.max(1) as f64;
    (time / n, chip.supports_power.then_some(energy / n))
}

/// Produce the scatter data for the requested chips.
pub fn run(chips: Option<Vec<Chip>>, scale: Scale) -> Vec<Point> {
    let chips = chips.unwrap_or_else(Chip::all);
    let runs = (scale.app_runs / 2).max(20);
    println!("Fig. 5: cost of fences ({runs} native runs per point; emp fences from");
    println!("empirical insertion on each chip, as in Sec. 6)\n");
    println!(
        "{:7} {:12} {:>9} {:>9} {:>9} {:>8} {:>8} {:>10}",
        "chip", "app", "no(ms)", "emp(ms)", "cons(ms)", "emp+%", "cons+%", "energy(J)"
    );
    let mut points = Vec::new();
    for chip in &chips {
        for name in table6::INSERTION_APPS {
            let app = app_by_name(name).expect("fig5 app");
            let base = app.spec().clone();
            let emp = table6::harden_one(app.as_ref(), chip, scale);
            let emp_spec = base.with_leveled_fences(&emp.fences);
            let cons_spec = base.with_all_fences();
            let (t_no, e_no) = measure(chip, app.as_ref(), base, runs, scale.seed);
            let (t_emp, e_emp) = measure(chip, app.as_ref(), emp_spec, runs, scale.seed + 1);
            let (t_cons, e_cons) = measure(chip, app.as_ref(), cons_spec, runs, scale.seed + 2);
            let energy = match (e_no, e_emp, e_cons) {
                (Some(a), Some(b), Some(c)) => Some([a, b, c]),
                _ => None,
            };
            let p = Point {
                chip: chip.short.to_string(),
                app: name.to_string(),
                runtime_ms: [t_no, t_emp, t_cons],
                energy_j: energy,
            };
            println!(
                "{:7} {:12} {:>9.4} {:>9.4} {:>9.4} {:>7.1}% {:>7.1}% {:>10}",
                p.chip,
                p.app,
                t_no,
                t_emp,
                t_cons,
                p.emp_overhead(),
                p.cons_overhead(),
                energy
                    .map(|e| format!("{:.3}/{:.3}/{:.3}", e[0], e[1], e[2]))
                    .unwrap_or_else(|| "-".into())
            );
            points.push(p);
        }
    }
    let mut emp: Vec<f64> = points.iter().map(Point::emp_overhead).collect();
    let mut cons: Vec<f64> = points.iter().map(Point::cons_overhead).collect();
    emp.sort_by(|a, b| a.total_cmp(b));
    cons.sort_by(|a, b| a.total_cmp(b));
    let med = |v: &[f64]| v[v.len() / 2];
    println!(
        "\nmedian runtime overhead: emp fences {:+.1}% (paper: <3%), cons fences {:+.1}% (paper: ~174%)",
        med(&emp),
        med(&cons)
    );
    println!("Expected shape: no point below the diagonal (fences never speed things up);");
    println!("cons >> emp; the oldest chips (770, C2075, C2050) show the extreme costs.");
    points
}
