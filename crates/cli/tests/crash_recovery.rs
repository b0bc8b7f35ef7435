//! Crash-safety suite against the real `fedsched` binary: kill -9 a
//! serving process mid-admission-burst, restart it on the same data
//! directory, and prove no acknowledged decision was lost; corrupt the
//! journal's tail and prove recovery truncates exactly the damage.

#![cfg(unix)]

use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use fedsched_dag::task::DagTask;
use fedsched_dag::time::Duration as Ticks;
use fedsched_service::client::Client;
use fedsched_service::protocol::{Placement, Response};
use fedsched_service::state::{AdmissionConfig, AdmissionState};

const BIN: &str = env!("CARGO_BIN_EXE_fedsched");

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fedsched-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn task() -> DagTask {
    DagTask::sequential(Ticks::new(1), Ticks::new(4), Ticks::new(8)).expect("valid task")
}

/// Spawns `fedsched serve -m 8 --addr 127.0.0.1:0 --workers 4
/// --data-dir <dir>` and parses the bound address from the startup
/// banner on stderr. Four dispatch workers race their decisions into the
/// WAL sequencer under the crash, where recovery must still replay
/// acknowledged decisions in ack order.
fn spawn_server(dir: &Path) -> (Child, String) {
    let mut child = Command::new(BIN)
        .args([
            "serve",
            "-m",
            "8",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "4",
            "--fsync",
            "every",
            "--data-dir",
        ])
        .arg(dir)
        .stderr(Stdio::piped())
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn fedsched serve");
    let stderr = child.stderr.take().expect("piped stderr");
    let mut lines = std::io::BufReader::new(stderr).lines();
    let banner = lines
        .next()
        .expect("a banner line")
        .expect("readable banner");
    let addr = banner
        .split("admission server on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in banner {banner:?}"))
        .to_owned();
    // Drain the rest of the banner so the child never blocks on a full
    // stderr pipe.
    std::thread::spawn(move || for _ in lines {});
    (child, addr)
}

#[test]
fn kill_dash_nine_mid_burst_loses_no_acknowledged_decision() {
    let dir = scratch_dir("kill9");
    let (child, addr) = spawn_server(&dir);
    let pid = child.id().to_string();

    // SIGKILL lands mid-burst: no flush, no destructor, no goodbye.
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(120));
        let _ = Command::new("kill").args(["-9", &pid]).status();
    });

    // Admission burst until the process dies under us. Every acknowledged
    // response is recorded; `--fsync every` promises each one is on disk.
    let mut client = Client::connect(addr.as_str()).expect("connect to server");
    let mut acked: Vec<(u64, Placement)> = Vec::new();
    let mut rejected = 0u64;
    for _ in 0..200_000 {
        match client.admit(&task()) {
            Ok(Response::Admitted {
                token, placement, ..
            }) => acked.push((token, placement)),
            Ok(Response::Rejected { .. }) => rejected += 1,
            Ok(other) => panic!("unexpected response {other:?}"),
            Err(_) => break, // the kill landed
        }
    }
    killer.join().expect("killer thread");
    let mut child = child;
    let status = child.wait().expect("reap the killed server");
    assert!(!status.success(), "the server must have died by signal");
    assert!(
        !acked.is_empty(),
        "the burst must land some admissions before the kill"
    );

    // Restart on the same directory. Boot replays the journal through the
    // real engine with outcome verification: a divergence from what was
    // acknowledged would refuse to serve at all.
    let (mut child, addr) = spawn_server(&dir);
    let mut client = Client::connect(addr.as_str()).expect("reconnect");
    let Response::Stats { snapshot } = client.stats().expect("stats") else {
        panic!("stats answered something else");
    };
    let admitted = snapshot.admitted_high + snapshot.admitted_low;
    let rejected_rec = snapshot.rejected_high + snapshot.rejected_low;
    assert!(
        admitted >= acked.len() as u64,
        "every acknowledged admission must survive: acked {} > recovered {admitted}",
        acked.len()
    );
    assert!(
        rejected_rec >= rejected,
        "every acknowledged rejection must survive: acked {rejected} > recovered {rejected_rec}"
    );
    assert!(
        admitted <= acked.len() as u64 + 1,
        "at most the one in-flight decision may exceed the acked set"
    );
    for (token, placement) in &acked {
        let Response::TaskInfo {
            placement: recovered,
            ..
        } = client.query(*token).expect("query")
        else {
            panic!("acked token {token} must be resident after recovery");
        };
        assert_eq!(
            recovered, *placement,
            "token {token} must keep its acknowledged placement"
        );
    }
    assert!(matches!(
        client.shutdown().expect("shutdown"),
        Response::ShuttingDown
    ));
    let _ = child.wait();

    // Never-crashed reference: the identical burst admitted into a fresh
    // in-memory engine produces the identical tokens and placements.
    let mut reference = AdmissionState::new(AdmissionConfig::new(8));
    for (token, placement) in &acked {
        let admitted = reference.admit(task()).expect("reference admits");
        assert_eq!(admitted.token, *token);
        assert_eq!(admitted.placement, *placement);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_corrupt_wal_tail_is_truncated_and_reported() {
    let dir = scratch_dir("corrupt");
    let (mut child, addr) = spawn_server(&dir);
    let mut client = Client::connect(addr.as_str()).expect("connect");
    let mut tokens = Vec::new();
    for _ in 0..4 {
        let Response::Admitted { token, .. } = client.admit(&task()).expect("admit") else {
            panic!("seed admissions must land");
        };
        tokens.push(token);
    }
    assert!(matches!(
        client.shutdown().expect("shutdown"),
        Response::ShuttingDown
    ));
    let _ = child.wait();

    // Flip the last payload byte: the final frame's CRC no longer matches,
    // as after a sector-level tear or bit rot at the tail.
    let wal = dir.join(fedsched_durable::WAL_FILE);
    let mut bytes = std::fs::read(&wal).expect("read wal");
    *bytes.last_mut().expect("non-empty wal") ^= 0xff;
    std::fs::write(&wal, &bytes).expect("corrupt the tail");

    // `fedsched recover` reports the damage without serving anything.
    let out = Command::new(BIN)
        .args(["recover", "-m", "8", "--data-dir"])
        .arg(&dir)
        .output()
        .expect("run recover");
    assert!(out.status.success(), "recover must succeed: {out:?}");
    let report = String::from_utf8(out.stdout).expect("utf-8 report");
    assert!(report.contains("corrupt tail"), "report: {report}");
    assert!(report.contains("3 resident task(s)"), "report: {report}");

    // A restarted server keeps every record before the damage and only
    // the final, corrupted admission is gone.
    let (mut child, addr) = spawn_server(&dir);
    let mut client = Client::connect(addr.as_str()).expect("reconnect");
    let (lost, kept) = tokens.split_last().expect("four tokens");
    for token in kept {
        assert!(
            matches!(
                client.query(*token).expect("query"),
                Response::TaskInfo { .. }
            ),
            "token {token} precedes the corruption and must survive"
        );
    }
    assert!(
        matches!(
            client.query(*lost).expect("query"),
            Response::NotFound { .. }
        ),
        "the corrupted final admission must be truncated away"
    );
    assert!(matches!(
        client.shutdown().expect("shutdown"),
        Response::ShuttingDown
    ));
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
