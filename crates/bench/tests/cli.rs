//! `repro` refuses a bad command line with exit code 2: never a panic,
//! never a silent default, never exit 0. A document it cannot write
//! exits 2 too.

use std::path::PathBuf;
use std::process::Command;

/// Run `repro` with `args`; return its exit code, stdout and stderr.
fn repro(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs");
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    (out.status.code(), text(&out.stdout), text(&out.stderr))
}

#[test]
fn bad_command_lines_exit_2_and_name_the_offending_token() {
    let cases: &[(&[&str], &str)] = &[
        (&[], "no experiment"),
        (&["nosuch"], "nosuch"),
        (&["speedup"], "speedup"),
        (&["bench"], "bench"),
        (&["suite", "--bogus"], "--bogus"),
        (&["suite", "--placement", "sideways"], "sideways"),
        (&["suite", "--chips", "Nope"], "Nope"),
        (&["suite", "--execs", "abc"], "abc"),
        (&["suite", "--execs"], "--execs"),
        (&["table5", "--chips", "Nope"], "Nope"),
        (&["trace", "MP", "--chips", "Nope"], "Nope"),
        (&["trace", "MP", "--env", "bogus"], "bogus"),
        (&["trace", "NOPE"], "NOPE"),
        (&["analyze", "NOPE"], "NOPE"),
        (&["analyze"], "analyze"),
        (&["serve"], "--jobs"),
        (&["soak", "--quick"], "--quick"),
        (&["soak", "--extended"], "--extended"),
    ];
    for (args, token) in cases {
        let (code, _, stderr) = repro(args);
        assert_eq!(code, Some(2), "repro {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "repro {args:?}: {stderr}");
        assert!(
            stderr.contains(token),
            "repro {args:?} must name `{token}`: {stderr}"
        );
    }
}

/// A fresh directory under the system temp dir, unique to this test.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn an_unwritable_json_path_exits_2_and_names_the_path() {
    let dir = scratch_dir("json");
    let path = dir.join("missing").join("x.json");
    let path = path.to_str().expect("utf-8 temp path");
    let cases: &[&[&str]] = &[
        &["analyze", "MP", "--json", path],
        &["trace", "MP", "--execs", "1", "--json", path],
        &["suite", "--execs", "1", "--chips", "Titan", "--json", path],
        &["all", "--execs", "1", "--chips", "Titan", "--json", path],
    ];
    for args in cases {
        let (code, stdout, stderr) = repro(args);
        assert_eq!(code, Some(2), "repro {args:?}: {stderr}");
        assert!(
            stderr.contains(path),
            "repro {args:?} must name {path}: {stderr}"
        );
        // A write failure is not a bad command line.
        assert!(!stderr.contains("usage:"), "repro {args:?}: {stderr}");
        // The file is made first, so nothing ran and nothing printed.
        assert_eq!(stdout, "", "repro {args:?}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
