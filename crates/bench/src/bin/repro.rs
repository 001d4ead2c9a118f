//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! repro <experiment> [--chips A,B,...] [--execs N] [--runs N] [--seed N]
//!                    [--workers N] [--json PATH] [--placement inter|intra]
//!                    [--provenance] [--env NAME] [--full]
//!
//! experiments:
//!   fig3            patch-finding plots (Titan, C2075, 980)
//!   table2          tuned stressing parameters per chip
//!   table3          access-sequence ranking snippet (Titan)
//!   fig4            spread-finding curves (980, K20)
//!   table5          testing-environment effectiveness
//!   table6          empirical fence insertion
//!   fig5            fence runtime/energy cost
//!   running-example cbe-dot on the K20 (Sec. 1)
//!   suite           generated litmus suite (shapes x chips x strategies;
//!                   --provenance adds the weakness-channel breakdown
//!                   column and JSON fields)
//!   trace SHAPE     replay one suite cell with a bounded event log
//!                   (--chips C picks the chip, default Titan; --env NAME
//!                   picks the suite environment, default by placement;
//!                   --json PATH writes the buffered events)
//!   analyze TARGET  static delay-set analysis of a shape or app kernel
//!                   (TARGET: shape short name, app name, shapes, apps, all;
//!                   --chips A,B re-runs the analysis per chip, adding the
//!                   incoherent-L1 read-read channel where the chip has one)
//!   serve           batch campaign jobs through the engine
//!                   (--jobs FILE-or-inline-spec; jobs separated by
//!                   newlines or `;`)
//!   soak            deterministic soak/throughput harness
//!                   (--quick|--extended|--stress; seed from --seed,
//!                   else SOAK_SEED, else 2016; exits 1 when a
//!                   throughput/cache/determinism gate fails)
//!   all             everything above, in order (except serve/soak)
//!
//! `--seed N` sets the base seed every subcommand derives its
//! per-campaign seeds from (default 2016) — one flag reseeds the entire
//! reproduction. `--workers N` sets the campaign worker-thread count
//! (0 = all cores; default from the WMM_WORKERS env var). Results are
//! bit-identical for every worker count. `--json PATH` (suite, trace
//! and analyze) writes the result as JSON. `--placement inter|intra`
//! (suite only) restricts the catalogue to one thread placement —
//! `intra` runs just the scoped shared-memory shapes.
//!
//! A bad command line — an unknown subcommand, flag, chip, placement,
//! target or environment, or a missing or unparsable value — prints the
//! offending token and the usage, and exits 2. A document that cannot be
//! written prints the path, without the usage, and exits 2 too.
//! ```

use std::process::ExitCode;
use std::str::FromStr;

use wmm_bench::{
    analyze, fig3, fig4, fig5, running, serve, soak, suite, table2, table3, table5, table6, trace,
    write_json, Failure, Scale,
};
use wmm_server::SoakProfile;
use wmm_sim::chip::Chip;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    run(&args).unwrap_or_else(|e| {
        eprintln!("repro: {e}");
        if let Failure::Usage(_) = e {
            usage();
        }
        ExitCode::from(2)
    })
}

/// The value following `flag`.
fn value<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<&'a str, String> {
    it.next()
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} wants a value"))
}

/// The value following `flag`, parsed.
fn parsed<'a, T: FromStr>(
    it: &mut impl Iterator<Item = &'a String>,
    flag: &str,
) -> Result<T, String> {
    let v = value(it, flag)?;
    v.parse().map_err(|_| format!("{flag}: cannot parse `{v}`"))
}

/// Parse the command line and run it. `Err` is a bad command line or an
/// unwritable document; every other outcome is the exit code.
fn run(args: &[String]) -> Result<ExitCode, Failure> {
    let cmd = args.first().ok_or("no experiment given")?;
    let mut scale = if args.iter().any(|a| a == "--full") {
        Scale::full()
    } else {
        Scale::quick()
    };
    // Env fallback first; an explicit --workers flag overrides it.
    if let Ok(v) = std::env::var("WMM_WORKERS") {
        if let Ok(w) = v.parse() {
            scale.workers = w;
        }
    }
    let mut chips: Option<Vec<Chip>> = None;
    let mut json_path: Option<String> = None;
    let mut placement: Option<wmm_gen::Placement> = None;
    let mut jobs_spec: Option<String> = None;
    let mut soak_profile = SoakProfile::Quick;
    let mut seed_flag: Option<u64> = None;
    let mut provenance = false;
    let mut env_name: Option<String> = None;
    // `analyze` and `trace` take one positional target before the flags.
    let mut target = "";
    let mut flag_start = 1;
    if cmd == "analyze" || cmd == "trace" {
        match args.get(1) {
            Some(t) if !t.starts_with("--") => {
                target = t;
                flag_start = 2;
            }
            _ if cmd == "analyze" => {
                return Err("analyze wants a target (shape, app, shapes, apps, or all)".into())
            }
            _ => return Err("trace wants a shape short name (e.g. MP, CoRR, MP.shared)".into()),
        }
    }
    let mut it = args.iter().skip(flag_start);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--chips" => {
                let names = value(&mut it, a)?;
                chips = Some(
                    names
                        .split(',')
                        .map(|n| Chip::by_short(n).ok_or_else(|| format!("unknown chip `{n}`")))
                        .collect::<Result<_, _>>()?,
                );
            }
            "--execs" => scale.execs = parsed(&mut it, a)?,
            "--runs" => scale.app_runs = parsed(&mut it, a)?,
            "--seed" => {
                scale.seed = parsed(&mut it, a)?;
                seed_flag = Some(scale.seed);
            }
            "--jobs" => jobs_spec = Some(value(&mut it, a)?.to_string()),
            "--provenance" => provenance = true,
            "--env" => env_name = Some(value(&mut it, a)?.to_string()),
            "--quick" => soak_profile = SoakProfile::Quick,
            "--extended" => soak_profile = SoakProfile::Extended,
            "--stress" => soak_profile = SoakProfile::Stress,
            "--workers" => scale.workers = parsed(&mut it, a)?,
            "--json" => json_path = Some(value(&mut it, a)?.to_string()),
            "--placement" => placement = Some(value(&mut it, a)?.parse()?),
            "--full" => {}
            other => return Err(Failure::Usage(format!("unknown flag `{other}`"))),
        }
    }
    let run_suite = |chips: Option<Vec<Chip>>| -> Result<(), Failure> {
        let cells = suite::run(chips, placement, scale, provenance);
        if let Some(path) = &json_path {
            write_json(
                path,
                &suite::to_json(&cells, scale.execs, scale.seed, provenance),
            )?;
        }
        Ok(())
    };
    match cmd.as_str() {
        "fig3" => fig3::run(scale),
        "table2" => {
            table2::run(chips, scale);
        }
        "table3" => table3::run("Titan", scale),
        "fig4" => fig4::run(scale),
        "table5" => {
            table5::run(chips, scale);
        }
        "table6" => {
            table6::run(chips, scale);
        }
        "fig5" => {
            fig5::run(chips, scale);
        }
        "running-example" => {
            running::run(scale);
        }
        "suite" => run_suite(chips)?,
        "trace" => trace::run(
            target,
            chips,
            env_name.as_deref(),
            scale,
            json_path.as_deref(),
        )?,
        "analyze" => analyze::run(target, chips, json_path.as_deref())?,
        "serve" => {
            let spec = jobs_spec.ok_or("serve wants --jobs FILE-or-inline-spec")?;
            if let Err(e) = serve::run(&spec, scale.workers) {
                eprintln!("{e}");
                return Ok(ExitCode::FAILURE);
            }
        }
        "soak" => {
            // Precedence: explicit --seed, then SOAK_SEED, then 2016.
            let seed = seed_flag.unwrap_or_else(|| {
                std::env::var("SOAK_SEED")
                    .ok()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(scale.seed)
            });
            // The soak-harness convention: 1 for a failed gate, 2 for a
            // run that could not finish.
            match soak::run(soak_profile, seed, scale.workers) {
                Ok(true) => {}
                Ok(false) => return Ok(ExitCode::FAILURE),
                Err(e) => {
                    eprintln!("{e}");
                    return Ok(ExitCode::from(2));
                }
            }
        }
        "all" => {
            running::run(scale);
            println!("\n{}\n", "=".repeat(76));
            fig3::run(scale);
            println!("\n{}\n", "=".repeat(76));
            table2::run(chips.clone(), scale);
            println!("\n{}\n", "=".repeat(76));
            table3::run("Titan", scale);
            println!("\n{}\n", "=".repeat(76));
            fig4::run(scale);
            println!("\n{}\n", "=".repeat(76));
            table5::run(chips.clone(), scale);
            println!("\n{}\n", "=".repeat(76));
            table6::run(chips.clone(), scale);
            println!("\n{}\n", "=".repeat(76));
            fig5::run(chips.clone(), scale);
            println!("\n{}\n", "=".repeat(76));
            run_suite(chips)?;
        }
        other => return Err(Failure::Usage(format!("unknown experiment `{other}`"))),
    }
    Ok(ExitCode::SUCCESS)
}

fn usage() {
    eprintln!(
        "usage: repro <fig3|table2|table3|fig4|table5|table6|fig5|running-example|suite|\
         analyze TARGET|trace SHAPE|serve|soak|all> \
         [--chips A,B] [--execs N] [--runs N] [--seed N] [--workers N] [--json PATH] \
         [--placement inter|intra] [--provenance] [--env NAME] [--jobs SPEC] \
         [--quick|--extended|--stress] [--full]\n\
         \n\
         --seed N       base seed for every subcommand's campaigns (default 2016)\n\
         --workers N    campaign worker threads (0 = all cores; WMM_WORKERS env default);\n\
         \x20              results are bit-identical for every value\n\
         --placement P  (suite) restrict the catalogue to inter- or intra-block shapes\n\
         --provenance   (suite) add the weakness-channel breakdown column; with --json,\n\
         \x20              per-cell channel counters and per-weak-outcome attribution\n\
         trace SHAPE    replay one suite cell with a bounded structured event log;\n\
         \x20              --chips C picks the chip (default Titan), --env NAME the suite\n\
         \x20              environment (default by placement), --json PATH the event dump\n\
         analyze TARGET static delay-set analysis; TARGET is a shape short name\n\
         \x20              (e.g. MP.shared), an app name (e.g. cbe-dot, shm-pipe),\n\
         \x20              shapes, apps, or all; --json PATH writes the report;\n\
         \x20              --chips A,B analyzes per chip (adds the incoherent-L1\n\
         \x20              read-read channel on chips that have one)\n\
         serve          batch campaign jobs through the engine; --jobs is a file\n\
         \x20              of job lines or an inline `;`-separated spec; exits 1 on a bad job\n\
         soak           deterministic soak harness; --quick/--extended/--stress\n\
         \x20              pick the mix, seed from --seed else SOAK_SEED else 2016;\n\
         \x20              writes tests/artifacts/soak/<profile>-seed<seed>/report.json\n\
         \x20              and nothing else; exits 1 on a failed gate, 2 on a run that\n\
         \x20              could not finish\n\
         \n\
         A bad command line exits 2."
    );
}
