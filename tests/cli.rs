//! `wcc replay` refuses flags it would otherwise ignore: a flag it does not
//! know, a value a flag does not take or lacks, and a single-trace flag
//! next to `--family`. Each exits 1 with a message naming the flag, before
//! any replay runs.

use std::process::{Command, Output};

fn wcc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wcc"))
        .args(args)
        .output()
        .expect("wcc starts")
}

fn assert_rejected(args: &[&str], names: &str) {
    let out = wcc(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?} was accepted");
    assert!(stderr.contains(names), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran a replay");
}

#[test]
fn replay_rejects_an_unknown_flag() {
    assert_rejected(
        &["replay", "--trace", "epa", "--bogus-flag", "7"],
        "unknown flag --bogus-flag",
    );
    assert_rejected(
        &["replay", "--family", "flash-crowd", "--audt"],
        "unknown flag --audt",
    );
    assert_rejected(&["replay", "--trace", "epa", "epa"], "unexpected argument");
    assert_rejected(
        &["replay", "--trace", "epa", "--audit", "7"],
        "--audit takes no value",
    );
    assert_rejected(
        &["replay", "--trace", "epa", "--shards"],
        "--shards needs a value",
    );
}

#[test]
fn family_replay_rejects_single_trace_flags() {
    let path = std::env::temp_dir().join(format!("wcc-cli-{}.jsonl", std::process::id()));
    let path = path.to_str().expect("utf-8 temp path");
    assert_rejected(
        &["replay", "--family", "flash-crowd", "--trace-out", path],
        "--trace-out applies to single-trace replays only",
    );
    assert!(!std::path::Path::new(path).exists(), "trace written");
    for flags in [
        &["--metrics"][..],
        &["--trace", "epa"],
        &["--lifetime-days", "2"],
        &["--hierarchy"],
        &["--decoupled"],
    ] {
        let mut args = vec!["replay", "--family", "flash-crowd"];
        args.extend_from_slice(flags);
        assert_rejected(&args, &format!("{} applies to single-trace", flags[0]));
    }
}
