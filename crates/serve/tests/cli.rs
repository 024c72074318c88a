//! The `repro` command line rejects options it does not know: a mistyped
//! or removed flag must fail loudly (exit status 2, a message on stderr,
//! nothing run) instead of being taken for a target.

use std::process::Command;

#[test]
fn unknown_options_exit_2_before_running_anything() {
    let cases: [&[&str]; 3] =
        [&["table1", "--threads", "2"], &["--no-such-flag"], &["fig8", "--scale", "0.1", "--procs=8"]];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "repro {args:?} must exit 2; stderr: {stderr}");
        assert!(stderr.contains("unknown option"), "repro {args:?}: stderr says why: {stderr}");
        assert!(out.stdout.is_empty(), "repro {args:?} must print no result");
    }
}
