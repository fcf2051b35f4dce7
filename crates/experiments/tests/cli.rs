//! Command-line contract of the `bash-experiments` binary.

use std::process::Command;

fn experiments(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bash-experiments"))
        .args(args)
        .output()
        .expect("spawn bash-experiments")
}

#[test]
fn unknown_ids_exit_2_with_the_known_list() {
    let out = experiments(&["fig2", "fgi12"]);
    assert_eq!(out.status.code(), Some(2), "a typo must fail the run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fgi12"), "names the bad id: {stderr}");
    assert!(
        stderr.contains("fig12") && stderr.contains("wedge-selftest"),
        "lists the known ids: {stderr}"
    );
    assert!(!stderr.contains("done."), "nothing may run: {stderr}");
}

#[test]
fn help_lists_the_known_ids() {
    let out = experiments(&["--help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("fig12") && stdout.contains("hierarchy"),
        "{stdout}"
    );
}
