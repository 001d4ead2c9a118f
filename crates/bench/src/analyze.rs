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
//! `--json PATH` additionally writes a machine-readable report, one
//! line per target: its verdict strings (`DemotableToBlock`,
//! `Required(Device)`, `RemovalCandidate`), warning counts, and per-chip
//! quiet flags are what CI checks.

use crate::Failure;
use wmm_analysis::{analyze_litmus, analyze_litmus_on_chip, ProgramAnalysis};
use wmm_apps::{app_by_name, app_names};
use wmm_core::analyze_spec;
use wmm_core::suite::litmus_pad;
use wmm_gen::Shape;
use wmm_litmus::LitmusLayout;
use wmm_obs::Json;
use wmm_sim::chip::Chip;
use wmm_sim::ir::FenceLevel;

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
    let shapes = || Shape::ALL.iter().flat_map(|&s| shape_reports(s, chips));
    let apps = || app_names().filter_map(analyze_app);
    match target {
        "shapes" => Ok(shapes().collect()),
        "apps" => Ok(apps().collect()),
        "all" => Ok(shapes().chain(apps()).collect()),
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
            a.max_warning_level().map_or("-", FenceLevel::name),
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
            let on = chip.as_ref().map_or(String::new(), |c| format!(" on {c}"));
            let placement = shape.placement();
            println!("== {shape}{on} ({placement}-block, {threads} threads) ==");
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

/// One analysis as JSON object members: the quiet certificate, the
/// warning count and strongest level, every delay pair and every site
/// verdict.
fn analysis_json(a: &ProgramAnalysis) -> Vec<(&'static str, Json)> {
    let delays = a.warnings.iter().map(|w| {
        Json::Object(vec![
            ("from", w.from.into()),
            ("to", w.to.into()),
            ("from_space", w.from_space.name().into()),
            ("to_space", w.to_space.name().into()),
            ("level", w.level.name().into()),
        ])
    });
    let sites = a.sites.iter().map(|s| {
        Json::Object(vec![
            ("index", s.index.into()),
            ("space", s.space.name().into()),
            ("verdict", s.verdict.to_string().into()),
        ])
    });
    let level = a
        .max_warning_level()
        .map_or(Json::Null, |l| l.name().into());
    vec![
        ("quiet", a.quiet().into()),
        ("warnings", a.warnings.len().into()),
        ("ordered_edges", a.ordered_edges.into()),
        ("level", level),
        ("delays", delays.collect()),
        ("sites", sites.collect()),
    ]
}

impl Report {
    /// The target's row of the JSON document.
    fn to_json(&self) -> Json {
        let members = match self {
            Report::Shape {
                shape,
                threads,
                chip,
                analysis,
            } => {
                let mut members = vec![
                    ("kind", "shape".into()),
                    ("name", shape.short().into()),
                    ("placement", shape.placement().short().into()),
                    ("threads", (*threads).into()),
                ];
                if let Some(c) = chip {
                    members.push(("chip", c.as_str().into()));
                }
                members.extend(analysis_json(analysis));
                members
            }
            Report::App { name, phases } => {
                let rows = phases.iter().enumerate().map(|(p, a)| {
                    let mut members = vec![("phase", p.into())];
                    members.extend(analysis_json(a));
                    Json::Object(members)
                });
                let warnings: usize = phases.iter().map(|a| a.warnings.len()).sum();
                vec![
                    ("kind", "app".into()),
                    ("name", name.as_str().into()),
                    ("quiet", phases.iter().all(ProgramAnalysis::quiet).into()),
                    ("warnings", warnings.into()),
                    ("phases", rows.collect()),
                ]
            }
        };
        Json::Object(members)
    }
}

/// The reports as a JSON document, one line per target.
fn to_json(reports: &[Report]) -> Json {
    let targets = reports.iter().map(Report::to_json).collect();
    Json::Object(vec![("targets", targets)])
}

/// Analyze `target` — on specific chips when `chips` names any — print
/// the report, and optionally write JSON. An unknown target is a
/// [`Failure::Usage`], an unwritable path a [`Failure::Write`].
pub fn run(target: &str, chips: Option<Vec<Chip>>, json_path: Option<&str>) -> Result<(), Failure> {
    let reports = resolve(target, &chips)?;
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            println!();
        }
        print_report(r);
    }
    json_path.map_or(Ok(()), |path| crate::write_json(path, &to_json(&reports)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json_of(target: &str) -> String {
        to_json(&resolve(target, &None).unwrap()).render()
    }

    fn json_on(target: &str, chip: &str) -> String {
        let chips = Some(vec![Chip::by_short(chip).unwrap()]);
        to_json(&resolve(target, &chips).unwrap()).render()
    }

    #[test]
    fn scoped_shape_renders_the_recorded_bytes() {
        let expected = r#"{
  "targets": [
    {"kind": "shape", "name": "MP.shared", "placement": "intra", "threads": 2, "quiet": false, "warnings": 2, "ordered_edges": 0, "level": "block", "delays": [{"from": 20, "to": 23, "from_space": "shared", "to_space": "shared", "level": "block"}, {"from": 28, "to": 30, "from_space": "shared", "to_space": "shared", "level": "block"}], "sites": [{"index": 7, "space": "global", "verdict": "RemovalCandidate"}, {"index": 8, "space": "global", "verdict": "RemovalCandidate"}, {"index": 20, "space": "shared", "verdict": "DemotableToBlock"}, {"index": 23, "space": "shared", "verdict": "RemovalCandidate"}, {"index": 28, "space": "shared", "verdict": "DemotableToBlock"}, {"index": 30, "space": "shared", "verdict": "RemovalCandidate"}, {"index": 32, "space": "global", "verdict": "RemovalCandidate"}, {"index": 34, "space": "global", "verdict": "RemovalCandidate"}]}
  ]
}
"#;
        assert_eq!(json_of("MP.shared"), expected);
    }

    #[test]
    fn chip_aware_shape_renders_the_recorded_bytes() {
        let expected = r#"{
  "targets": [
    {"kind": "shape", "name": "CoRR", "placement": "inter", "threads": 2, "chip": "C2075", "quiet": false, "warnings": 1, "ordered_edges": 0, "level": "device", "delays": [{"from": 23, "to": 25, "from_space": "global", "to_space": "global", "level": "device"}], "sites": [{"index": 7, "space": "global", "verdict": "RemovalCandidate"}, {"index": 8, "space": "global", "verdict": "RemovalCandidate"}, {"index": 18, "space": "global", "verdict": "RemovalCandidate"}, {"index": 23, "space": "global", "verdict": "Required(Device)"}, {"index": 25, "space": "global", "verdict": "RemovalCandidate"}, {"index": 27, "space": "global", "verdict": "RemovalCandidate"}, {"index": 29, "space": "global", "verdict": "RemovalCandidate"}]}
  ]
}
"#;
        assert_eq!(json_on("CoRR", "C2075"), expected);
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
        let json = to_json(&reports).render();
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
