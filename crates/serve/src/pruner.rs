//! The hour indexes as scan-time evidence: §6's Elephant Twin integration
//! "at the level of InputFormats".
//!
//! The name postings that answer `count` lookups also tell the batch
//! engine which row groups a selective scan can skip. The engine derives a
//! tag constraint from the plan's own FILTERs — the one it checks in-file
//! zone maps against — and asks this pruner per file; the pruner never sees
//! a pattern or a name list of its own, so it cannot disagree with the
//! query. The evidence resides alongside the data under `/index/serve/...`
//! and is droppable: delete it and [`crate::IndexMaintainer::recover`]
//! rebuilds it from the landed hours.

use std::collections::HashMap;
use std::sync::Arc;

use uli_dataflow::BlockPruner;
use uli_warehouse::{tag_hash, HourlyPartition, ScanFile, WhPath, ZoneMapPruner};

use crate::hour::HourIndex;

/// Prunes scan units by the committed hours' name postings.
pub(crate) struct PostingsPruner {
    /// Hour directory → that hour's index, shared with the maintainer.
    hours: HashMap<WhPath, Arc<HourIndex>>,
}

impl PostingsPruner {
    pub(crate) fn new<'a>(
        category: &str,
        hours: impl IntoIterator<Item = &'a Arc<HourIndex>>,
    ) -> PostingsPruner {
        let dir = |hour| HourlyPartition::from_hour_index(category, hour).main_dir();
        let hours = hours
            .into_iter()
            .map(|index| (dir(index.hour_index), index.clone()))
            .collect();
        PostingsPruner { hours }
    }
}

impl BlockPruner for PostingsPruner {
    /// Fails open at every step: no tag constraint, an hour with no
    /// committed index, a file the index never saw, or a file re-landed in
    /// another shape all read in full. Names are matched by hash, so a
    /// collision can only keep extra units.
    fn prune(
        &self,
        path: &WhPath,
        file: &ScanFile,
        constraint: &ZoneMapPruner,
    ) -> Option<Vec<bool>> {
        let tags = constraint.tags.as_ref()?;
        let index = self.hours.get(&path.parent()?)?;
        let file_no = index.files.iter().position(|f| f.name == path.name())? as u32;
        let posted = index
            .names
            .iter()
            .filter(|(name, _)| tags.contains(&tag_hash(name.as_bytes())))
            .filter_map(|(_, (_, postings))| postings.get(&file_no))
            .flatten();
        index.unit_mask(file_no, file, posted)
    }
}
