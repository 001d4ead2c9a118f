//! `repro` refuses a bad command line with exit code 2: never a panic,
//! never a silent default, never exit 0.

use std::process::Command;

/// Run `repro` with `args`; return its exit code and stderr.
fn repro(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
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
    ];
    for (args, token) in cases {
        let (code, stderr) = repro(args);
        assert_eq!(code, Some(2), "repro {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "repro {args:?}: {stderr}");
        assert!(
            stderr.contains(token),
            "repro {args:?} must name `{token}`: {stderr}"
        );
    }
}
