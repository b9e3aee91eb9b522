//! Known-good fixture for E001: the setting is a config field, deployment
//! paths may come from `std::env` functions that are not variables, and
//! tests may pin `SDD_THREADS`.

pub struct Config {
    pub cache_bytes: usize,
}

pub fn cache_enabled(config: &Config) -> bool {
    config.cache_bytes > 0
}

pub fn default_spill_dir() -> std::path::PathBuf {
    std::env::temp_dir()
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_pin_the_thread_count() {
        std::env::set_var("SDD_THREADS", "2");
        assert_eq!(std::env::var("SDD_THREADS").as_deref(), Ok("2"));
        std::env::remove_var("SDD_THREADS");
    }
}
