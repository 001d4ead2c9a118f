//! `repro analyze` — the static scoped-communication analyzer as a
//! subcommand: delay-set warnings, per-site fence verdicts, and quiet
//! certificates for litmus shapes and application kernels, with zero
//! simulator executions.
//!
//! Targets:
//!
//! * a shape short name (`MP`, `MP.shared`, `MP+fences`, ...) — exact
//!   per-test-thread analysis of the generated kernel;
//! * an application name (`cbe-dot`, `ls-bh-nf`, `shm-pipe`, ...) —
//!   per-phase analysis under representative launch threads;
//! * `shapes` — the whole shape catalogue;
//! * `apps` — the Tab. 4 set plus the scoped `shm-pipe` demo;
//! * `all` — both of the above.
//!
//! `--chips A,B` routes shape targets through the chip-aware analyzer
//! (`wmm_analysis::analyze_litmus_on_chip`), one report per chip: on
//! incoherent-L1 chips (C2075/C2050) the structural read-read channel
//! joins the delay set, so `CoRR` warns there and stays quiet on the
//! coherent presets. Without the flag the analysis is chip-independent,
//! exactly as before.
//!
//! `--json PATH` additionally writes a machine-readable report whose
//! verdict strings (`DemotableToBlock`, `Required(Device)`,
//! `RemovalCandidate`), warning counts, and per-chip quiet flags CI
//! greps for.

use std::fmt::Write as _;

use wmm_analysis::{analyze_litmus, analyze_litmus_on_chip, ProgramAnalysis};
use wmm_apps::{app_by_name, app_names};
use wmm_core::analyze_spec;
use wmm_core::suite::litmus_pad;
use wmm_gen::Shape;
use wmm_litmus::{LitmusLayout, Placement};
use wmm_sim::chip::Chip;
use wmm_sim::ir::{FenceLevel, Space};

/// Distance the shape targets are instantiated at, on the suite's
/// litmus layout ([`litmus_pad`]). The analyzer's verdict depends on
/// spaces and launch geometry, not on the concrete location distance,
/// so one standard layout represents every suite row.
const DISTANCE: u32 = 64;

/// One analyzed target.
enum Report {
    /// A litmus shape, analyzed exactly.
    Shape {
        shape: Shape,
        threads: u32,
        /// Chip the analysis ran on (`None` ⇒ chip-independent).
        chip: Option<String>,
        analysis: ProgramAnalysis,
    },
    /// An application, analyzed per phase under representative threads.
    App {
        name: String,
        phases: Vec<ProgramAnalysis>,
    },
}

fn analyze_shape(shape: Shape, chip: Option<&Chip>) -> Report {
    let li = shape.instance(LitmusLayout::standard(
        DISTANCE,
        litmus_pad().required_words(),
    ));
    let analysis = match chip {
        Some(c) => analyze_litmus_on_chip(&li, c),
        None => analyze_litmus(&li),
    };
    Report::Shape {
        shape,
        threads: li.threads,
        chip: chip.map(|c| c.short.to_string()),
        analysis,
    }
}

/// One report per requested chip, or one chip-independent report.
fn shape_reports(shape: Shape, chips: &Option<Vec<Chip>>) -> Vec<Report> {
    match chips {
        None => vec![analyze_shape(shape, None)],
        Some(cs) => cs.iter().map(|c| analyze_shape(shape, Some(c))).collect(),
    }
}

fn analyze_app(name: &str) -> Option<Report> {
    let app = app_by_name(name)?;
    Some(Report::App {
        name: name.to_string(),
        phases: analyze_spec(app.spec()).phases,
    })
}

fn resolve(target: &str, chips: &Option<Vec<Chip>>) -> Result<Vec<Report>, String> {
    match target {
        "shapes" => Ok(Shape::ALL
            .iter()
            .flat_map(|&s| shape_reports(s, chips))
            .collect()),
        "apps" => Ok(app_names().filter_map(analyze_app).collect()),
        "all" => {
            let mut out: Vec<Report> = Shape::ALL
                .iter()
                .flat_map(|&s| shape_reports(s, chips))
                .collect();
            out.extend(app_names().filter_map(analyze_app));
            Ok(out)
        }
        name => {
            if let Ok(shape) = name.parse::<Shape>() {
                return Ok(shape_reports(shape, chips));
            }
            if let Some(r) = analyze_app(name) {
                return Ok(vec![r]);
            }
            Err(format!(
                "unknown analyze target `{name}` (want a shape short name, an \
                 application name, `shapes`, `apps`, or `all`)"
            ))
        }
    }
}

fn space_name(s: Space) -> &'static str {
    match s {
        Space::Global => "global",
        Space::Shared => "shared",
    }
}

fn level_name(l: FenceLevel) -> &'static str {
    match l {
        FenceLevel::Block => "block",
        FenceLevel::Device => "device",
    }
}

fn print_analysis(a: &ProgramAnalysis, indent: &str) {
    for w in &a.warnings {
        println!("{indent}{w}");
    }
    for s in &a.sites {
        println!("{indent}{s}");
    }
    if a.quiet() {
        println!(
            "{indent}quiet: {} delay pair(s) already ordered by fences/barriers",
            a.ordered_edges
        );
    } else {
        println!(
            "{indent}{} warning(s), minimal fence = {}",
            a.warnings.len(),
            a.max_warning_level().map(level_name).unwrap_or("-"),
        );
    }
}

fn print_report(r: &Report) {
    match r {
        Report::Shape {
            shape,
            threads,
            chip,
            analysis,
        } => {
            let placement = match shape.placement() {
                Placement::InterBlock => "inter-block",
                Placement::IntraBlock => "intra-block",
            };
            match chip {
                Some(c) => println!(
                    "== {} on {c} ({placement}, {threads} threads) ==",
                    shape.short()
                ),
                None => println!("== {} ({placement}, {threads} threads) ==", shape.short()),
            }
            print_analysis(analysis, "  ");
        }
        Report::App { name, phases } => {
            println!("== {name} ({} phase(s)) ==", phases.len());
            for (i, a) in phases.iter().enumerate() {
                println!("  phase {i}:");
                print_analysis(a, "    ");
            }
        }
    }
}

fn json_analysis(out: &mut String, a: &ProgramAnalysis) {
    let _ = write!(
        out,
        "\"quiet\": {}, \"warnings\": {}, \"ordered_edges\": {}, \"level\": {}, ",
        a.quiet(),
        a.warnings.len(),
        a.ordered_edges,
        match a.max_warning_level() {
            Some(l) => format!("\"{}\"", level_name(l)),
            None => "null".to_string(),
        },
    );
    let delays: Vec<String> = a
        .warnings
        .iter()
        .map(|w| {
            format!(
                "{{\"from\": {}, \"to\": {}, \"from_space\": \"{}\", \"to_space\": \"{}\", \
                 \"level\": \"{}\"}}",
                w.from,
                w.to,
                space_name(w.from_space),
                space_name(w.to_space),
                level_name(w.level),
            )
        })
        .collect();
    let sites: Vec<String> = a
        .sites
        .iter()
        .map(|s| {
            format!(
                "{{\"index\": {}, \"space\": \"{}\", \"verdict\": \"{}\"}}",
                s.index,
                space_name(s.space),
                s.verdict,
            )
        })
        .collect();
    let _ = write!(
        out,
        "\"delays\": [{}], \"sites\": [{}]",
        delays.join(", "),
        sites.join(", "),
    );
}

/// Render the reports as a JSON document.
fn to_json(reports: &[Report]) -> String {
    let mut out = String::from("{\n  \"targets\": [\n");
    for (i, r) in reports.iter().enumerate() {
        match r {
            Report::Shape {
                shape,
                threads,
                chip,
                analysis,
            } => {
                let _ = write!(
                    out,
                    "    {{\"kind\": \"shape\", \"name\": \"{}\", \"placement\": \"{}\", \
                     \"threads\": {threads}, ",
                    shape.short(),
                    match shape.placement() {
                        Placement::InterBlock => "inter",
                        Placement::IntraBlock => "intra",
                    },
                );
                if let Some(c) = chip {
                    let _ = write!(out, "\"chip\": \"{c}\", ");
                }
                json_analysis(&mut out, analysis);
                out.push('}');
            }
            Report::App { name, phases } => {
                let _ = write!(out, "    {{\"kind\": \"app\", \"name\": \"{name}\", ");
                let quiet = phases.iter().all(ProgramAnalysis::quiet);
                let warnings: usize = phases.iter().map(|a| a.warnings.len()).sum();
                let _ = write!(
                    out,
                    "\"quiet\": {quiet}, \"warnings\": {warnings}, \"phases\": ["
                );
                for (p, a) in phases.iter().enumerate() {
                    if p > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "{{\"phase\": {p}, ");
                    json_analysis(&mut out, a);
                    out.push('}');
                }
                out.push_str("]}");
            }
        }
        out.push_str(if i + 1 < reports.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Analyze `target` — on specific chips when `chips` names any — print
/// the report, and optionally write JSON.
pub fn run(target: &str, chips: Option<Vec<Chip>>, json_path: Option<&str>) -> Result<(), String> {
    let reports = resolve(target, &chips)?;
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            println!();
        }
        print_report(r);
    }
    if let Some(path) = json_path {
        let json = to_json(&reports);
        std::fs::write(path, json).map_err(|e| format!("failed to write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json_of(target: &str) -> String {
        to_json(&resolve(target, &None).unwrap())
    }

    fn json_on(target: &str, chip: &str) -> String {
        let chips = Some(vec![Chip::by_short(chip).unwrap()]);
        to_json(&resolve(target, &chips).unwrap())
    }

    #[test]
    fn scoped_shape_reports_demotable_sites() {
        let json = json_of("MP.shared");
        assert!(json.contains("\"placement\": \"intra\""));
        assert!(json.contains("\"level\": \"block\""));
        assert!(json.contains("DemotableToBlock"), "{json}");
    }

    #[test]
    fn fenced_mp_is_certified_quiet() {
        let json = json_of("MP+fences");
        assert!(json.contains("\"quiet\": true"), "{json}");
        assert!(json.contains("\"warnings\": 0"), "{json}");
        assert!(!json.contains("\"level\": \"device\""), "{json}");
    }

    #[test]
    fn corr_analysis_is_chip_aware() {
        // Chip-independent: CoRR is coherence-exempt, no chip field.
        let bare = json_of("CoRR");
        assert!(bare.contains("\"quiet\": true"), "{bare}");
        assert!(!bare.contains("\"chip\""), "{bare}");
        // On an incoherent-L1 Tesla the read-read pair warns at device
        // level; a coherent chip stays quiet.
        let c2075 = json_on("CoRR", "C2075");
        assert!(c2075.contains("\"chip\": \"C2075\""), "{c2075}");
        assert!(c2075.contains("\"quiet\": false"), "{c2075}");
        assert!(c2075.contains("\"level\": \"device\""), "{c2075}");
        let titan = json_on("CoRR", "Titan");
        assert!(titan.contains("\"chip\": \"Titan\""), "{titan}");
        assert!(titan.contains("\"quiet\": true"), "{titan}");
        // The fenced twin is quiet even on the incoherent chip.
        let twin = json_on("CoRR+fence", "C2075");
        assert!(twin.contains("\"quiet\": true"), "{twin}");
    }

    #[test]
    fn chip_list_fans_out_shape_reports() {
        let chips = Some(vec![
            Chip::by_short("C2075").unwrap(),
            Chip::by_short("K20").unwrap(),
        ]);
        let reports = resolve("CoRR", &chips).unwrap();
        assert_eq!(reports.len(), 2);
        assert!(run("nope", chips, None).is_err());
    }

    #[test]
    fn every_app_target_resolves() {
        let reports = resolve("apps", &None).unwrap();
        // Tab. 4's ten plus shm-pipe.
        assert_eq!(reports.len(), 11);
        let json = to_json(&reports);
        // The unfenced Tab. 4 apps communicate through global memory.
        assert!(json.contains("Required(Device)"), "{json}");
        // The scoped demo exposes block-demotable shared sites.
        assert!(json.contains("DemotableToBlock"), "{json}");
    }

    #[test]
    fn unknown_targets_error_out() {
        assert!(resolve("nope", &None).is_err());
        assert!(run("nope", None, None).is_err());
    }
}
