//! Bench targets for the CommTM simulator.
//!
//! `benches/` holds the targets that do work no other entry point does:
//! `table1_config` prints the simulated system's configuration (Table I),
//! `hotpath` and `list_gather` time simulator hot paths. The paper's
//! figures and Table II are regenerated by the lab CLI instead, e.g.
//! `commtm-lab run fig09 --threads 1,8,32 --scale 10 --seeds 2 --jobs 4`,
//! or `commtm-lab run --all` for every one.
