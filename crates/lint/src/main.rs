//! `hacc-lint` — the linter's one entry point, and the tier-0 gate in
//! `scripts/verify.sh`. Building it compiles only this crate and the
//! dependency-free `hacc-telem`, so the gate runs before (and much
//! faster than) the full workspace build.

#![forbid(unsafe_code)]

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(hacc_lint::cli_main(&args));
}
