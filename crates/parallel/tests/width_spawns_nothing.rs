//! Reading the pool width builds no pool: a process that only records
//! `width()` carries no idle `worksteal-*` worker.
//!
//! The global pool is built at most once per process and its workers
//! live as long as the process does, so this binary holds exactly one
//! test: another test that built the pool would leave its workers behind.

use std::time::Duration;

/// The names of this process's threads, as the kernel keeps them.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .filter_map(|entry| std::fs::read_to_string(entry.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_owned())
        .collect()
}

#[test]
fn width_reports_the_configured_width_without_building_the_pool() {
    let before = thread_names().len();
    assert!(
        fedsched_parallel::configure_threads(4),
        "nothing built the pool yet"
    );
    assert_eq!(fedsched_parallel::width(), 4);
    // A spawned thread takes its name only once it runs: give it time.
    std::thread::sleep(Duration::from_millis(100));
    let names = thread_names();
    assert_eq!(
        names
            .iter()
            .filter(|name| name.starts_with("worksteal-"))
            .count(),
        0,
        "no pool worker among {names:?}"
    );
    assert_eq!(names.len(), before, "width() started no thread: {names:?}");
}
