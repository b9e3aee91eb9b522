//! Known-bad fixture for E001: a product crate growing its own environment
//! switches.

pub fn cache_enabled() -> bool {
    !std::env::var("SDD_NO_CACHE").is_ok_and(|v| v != "0")
}

pub fn resident_override() -> Option<std::ffi::OsString> {
    use std::env;
    env::var_os("SDD_SHARD_RESIDENT")
}
