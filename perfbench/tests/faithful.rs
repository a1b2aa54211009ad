//! The benchmark steps its own drive loops so it can time each call. These
//! tests pin that, for the same spec and seed, those loops give canonical
//! exports byte-identical to the library's own drives — so the benchmark,
//! traced or not, measures the same program the library runs.

use ipipe_perfbench::probe::Probe;
use ipipe_perfbench::workload::Workload;

fn assert_faithful(w: Workload, seed: u64, traced: bool) {
    let mut probe = Probe::new(traced);
    let out = w
        .run(seed, &mut probe)
        .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", w.name()));
    let library = w.library_export(seed);
    assert!(
        out.export == library,
        "{} seed {seed} (traced: {traced}): the benchmark loop's export differs from the library drive's",
        w.name()
    );
    if traced {
        assert!(
            probe.spans().iter().any(|s| s.name == "rt.run_for"),
            "a traced run records run_for spans"
        );
    }
}

#[test]
fn rkv_scale_loop_matches_drive_rkv_scale() {
    assert_faithful(Workload::RkvScale, 5, false);
    assert_faithful(Workload::RkvScale, 0x5eed, true);
}

#[test]
fn pod_sharded_loop_matches_build_grid_and_run_for() {
    assert_faithful(Workload::PodSharded, 5, false);
    assert_faithful(Workload::PodSharded, 0x5eed, true);
}

#[test]
fn tcp_offload_loop_matches_drive_tcp_offload() {
    assert_faithful(Workload::TcpOffload, 5, false);
    assert_faithful(Workload::TcpOffload, 0x5eed, true);
}

#[test]
fn rkv_overload_loop_matches_drive_rkv_overload() {
    assert_faithful(Workload::RkvOverload, 5, false);
    assert_faithful(Workload::RkvOverload, 0x5eed, true);
}

#[test]
fn pod_sharded_export_matches_its_serial_run() {
    let mut probe = Probe::new(false);
    let out = Workload::PodSharded.run(9, &mut probe).expect("clean run");
    let serial = Workload::PodSharded
        .serial_export(9)
        .expect("the sharded workload has a serial reference");
    assert!(out.export == serial, "2-shard export differs from 1-shard");
}
