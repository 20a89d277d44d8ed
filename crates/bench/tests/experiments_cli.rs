//! The `experiments` binary rejects names it does not know, instead of
//! running nothing and exiting 0.

use std::process::Command;

#[test]
fn unknown_experiment_names_are_rejected() {
    // `ablation-pec` is a retired experiment; `no-such-experiment` never
    // existed. Both fail before any experiment runs, naming the valid set.
    for name in ["ablation-pec", "no-such-experiment"] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(["--quick", name])
            .output()
            .expect("experiments binary runs");
        assert!(!out.status.success(), "`{name}` must fail");
        assert!(out.stdout.is_empty(), "`{name}` ran something");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(name), "{err}");
        assert!(err.contains("table5 table6 fig9 ablation"), "{err}");
    }
}
