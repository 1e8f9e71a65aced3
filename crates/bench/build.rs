//! Records how the crate was compiled, so `perf` output names the flags
//! that produced it. `CARGO_ENCODED_RUSTFLAGS` is what rustc actually
//! received — including `.cargo/config.toml`'s `target-cpu=native` —
//! unlike the `RUSTFLAGS` environment the binary later runs under.

fn main() {
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS")
        .unwrap_or_default()
        .replace('\x1f', " ");
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into());
    println!("cargo:rustc-env=ACE_BENCH_RUSTFLAGS={flags}");
    println!("cargo:rustc-env=ACE_BENCH_PROFILE={profile}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
    println!("cargo:rerun-if-changed=build.rs");
}
