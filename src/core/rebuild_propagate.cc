// The propagation phase of the online rebuild (Section 5): the entries a
// top action's copy phase passed up are applied level by level, bottom-up
// and left to right. Each parent's final rows are laid out as slices of its
// page image plus the new rows, and one packer places them: in place, split
// over new siblings, or partly moved into the open left page (Section 5.5).

#include <cstdio>

#include "core/rebuild_impl.h"
#include "testing/crash_point.h"
#include "util/coding.h"
#include "util/logging.h"

namespace oir {

namespace {

// The packer's measure: how many leading rows of `rows` fit in `room`
// bytes of a page.
size_t RowsThatFit(std::span<const Slice> rows, size_t room) {
  size_t n = 0;
  while (n < rows.size() && rows[n].size() + kSlotSize <= room) {
    room -= rows[n].size() + kSlotSize;
    ++n;
  }
  return n;
}

}  // namespace

Status OnlineRebuilder::Impl::Propagate(OpCtx op, BTree::NtaScope* nta,
                                        const Slice& pp_route_key,
                                        std::vector<PropEntry>* entries,
                                        BTree::Path* path) {
  std::vector<PropEntry>& prop = *entries;
  for (uint16_t level = 1; !prop.empty(); ++level) {
    prop_next.clear();
    // The level-1 page open for left-sibling inserts (Section 5.5).
    PageId open_left = kInvalidPageId;

    // Section 5.5: at level 1, the parent of PP starts as the open left
    // page — the worked example of Figure 2 inserts [22, N1] into it.
    if (level == 1 && opts.reorganize_level1 && !pp_route_key.empty()) {
      PageRef lp;
      OIR_RETURN_IF_ERROR(tree->Traverse(op, pp_route_key, /*writer=*/true,
                                         level, &lp, path));
      const PageId lid = lp.id();
      Status ls = locks->Lock(op.id, AddressLockKey(lid), LockMode::kX,
                              /*conditional=*/false);
      if (!ls.ok()) {
        lp.latch().UnlockX();
        return ls;
      }
      nta->locked.push_back(lid);
      lp.header()->flags |= kFlagSplit;  // insert-only so far (Section 5.4.2)
      nta->bits.push_back(lid);
      lp.latch().UnlockX();
      open_left = lid;
    }

    size_t i = 0;
    while (i < prop.size()) {
      PageRef parent;
      OIR_RETURN_IF_ERROR(tree->Traverse(op, prop[i].route_key,
                                         /*writer=*/true, level, &parent,
                                         path));
      SlottedPage sp(parent.data(), page_size());
      // Group = maximal run of entries whose senders are children of this
      // parent (they are contiguous in the list; Section 5.4.1).
      size_t j = i;
      while (j < prop.size() && node::FindChildPos(sp, prop[j].sender) >= 0) {
        ++j;
      }
      if (j == i) {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "propagation: sender %u not in parent %u (level %u)",
                      prop[i].sender, parent.id(), level);
        parent.latch().UnlockX();
        return Status::Corruption(buf);
      }
      OIR_RETURN_IF_ERROR(ApplyGroup(op, nta, &parent, level,
                                     std::span(prop).subspan(i, j - i),
                                     &open_left, &prop_next));
      i = j;
    }
    prop.swap(prop_next);
  }
  return Status::OK();
}

Slice OnlineRebuilder::Impl::NonLeafRow(PageId child, const Slice& sep) {
  std::string* row = arena.Next();
  row->resize(sizeof(PageId));
  EncodeFixed32(row->data(), child);
  row->append(sep.data(), sep.size());
  return Slice(*row);
}

Status OnlineRebuilder::Impl::FormatLocked(OpCtx op, BTree::NtaScope* nta,
                                           PageId id, uint16_t level,
                                           PageId prev, PageId next,
                                           uint16_t flag, PageRef* ref) {
  OIR_CHECK(locks->Lock(op.id, AddressLockKey(id), LockMode::kX,
                        /*conditional=*/false)
                .ok());  // freshly allocated: uncontended
  nta->locked.push_back(id);
  OIR_RETURN_IF_ERROR(tree->FormatNewPage(op, id, level, prev, next, ref));
  ref->header()->flags |= flag;
  nta->bits.push_back(id);
  return Status::OK();
}

size_t OnlineRebuilder::Impl::Pack(OpCtx op, PageRef* page, SlotId pos,
                                   size_t room, std::span<Slice> rows,
                                   uint16_t level) {
  if (pos == 0 && !rows.empty()) {
    rows[0] = Slice(rows[0].data(), sizeof(PageId));
  }
  const size_t n = RowsThatFit(rows, room);
  if (n > 0) tree->LogBatchInsert(op, page, pos, rows.first(n), level);
  return n;
}

// Applies one group of entries to their parent (Section 5.3): the parent's
// final rows are laid out as slices — its own rows before the delete range,
// the new rows, its rows after — and the packer places them: in place, or
// across the parent and new siblings when they overflow it.
Status OnlineRebuilder::Impl::ApplyGroup(OpCtx op, BTree::NtaScope* nta,
                                         PageRef* parent, uint16_t level,
                                         std::span<const PropEntry> group,
                                         PageId* open_left,
                                         std::vector<PropEntry>* up) {
  OIR_CRASH_POINT("rebuild.propagate.group");
  const PageId pid = parent->id();
  Status ls = locks->Lock(op.id, AddressLockKey(pid), LockMode::kX,
                          /*conditional=*/false);
  if (!ls.ok()) {
    parent->latch().UnlockX();
    return ls;
  }
  nta->locked.push_back(pid);

  // The parent's rows as they stand, in an arena image: the layout and the
  // separators sent upward are slices of it.
  std::string* image = arena.Next();
  image->assign(parent->data(), page_size());
  const SlottedPage old(image->data(), page_size());

  // The contiguous delete range [d0, d1) and the new rows, in entry order.
  int d0 = -1;
  int d1 = -1;
  new_rows.clear();
  for (const PropEntry& pe : group) {
    if (pe.kind != PropEntry::Kind::kInsert) {
      const int pos = node::FindChildPos(old, pe.sender);
      OIR_CHECK(pos >= 0 && (d0 < 0 || pos == d1));  // Section 5.4.2
      if (d0 < 0) d0 = pos;
      d1 = pos + 1;
    }
    if (pe.kind != PropEntry::Kind::kDelete) {
      new_rows.push_back(NonLeafRow(pe.child, pe.sep));
    }
  }
  const int dcount = d0 < 0 ? 0 : d1 - d0;
  if (d0 < 0) {
    // Pure-insert group (possible above level 1): position by separator.
    d0 = d1 = node::FindEntryInsertPos(old, node::SeparatorOf(new_rows[0]));
  }

  // Flag bits per Section 5.4.2: SHRINK when any delete is performed (or
  // the page splits), SPLIT when insert-only.
  parent->header()->flags |= (dcount > 0) ? kFlagShrink : kFlagSplit;
  nta->bits.push_back(pid);

  // Section 5.5: when the first child of the page is being deleted, move as
  // many new rows as fit into the open left page. That page is left of the
  // X-latched parent, and waiting for it would latch right to left against
  // the Section 6.5 order; the move is only an optimisation, so a busy left
  // page just keeps the rows here.
  size_t moved = 0;
  if (level == 1 && opts.reorganize_level1 &&
      *open_left != kInvalidPageId && *open_left != pid && d0 == 0 &&
      dcount > 0 && !new_rows.empty()) {
    PageRef lp;
    OIR_RETURN_IF_ERROR(bm->Fetch(*open_left, &lp));
    if (lp.latch().TryLockX()) {
      SlottedPage lsp(lp.data(), page_size());
      moved = Pack(op, &lp, lsp.nslots(),
                   LeafCapacityBytes() - lsp.UsedSpace(), new_rows, level);
      lp.latch().UnlockX();
    }
  }

  layout.clear();
  for (int r = 0; r < d0; ++r) layout.push_back(old.Get(r));
  layout.insert(layout.end(), new_rows.begin() + moved, new_rows.end());
  for (int r = d1; r < old.nslots(); ++r) layout.push_back(old.Get(r));
  const size_t spliced = new_rows.size() - moved;  // new rows at d0

  const bool is_root = tree->root() == pid;
  const Slice route = group.front().route_key;
  if (layout.empty()) {
    // Section 5.3.1 + footnote 6: all children gone — the page shrinks;
    // deallocate directly, no deletes performed.
    OIR_CHECK(!is_root);
    parent->latch().UnlockX();
    parent->Release();
    OIR_RETURN_IF_ERROR(space->Deallocate(op.ctx, pid));
    up->push_back(PropEntry{PropEntry::Kind::kDelete, pid, route, Slice(),
                            kInvalidPageId});
    return Status::OK();
  }

  // Did the page's key-range start move (first entry deleted)? Then the
  // next level gets an UPDATE [S, pid] where S is the separator value the
  // new first row carried (Section 5.3.3). It is sent first: the next level
  // lays out its inserts in entry order, so if pid splits below, this
  // UPDATE must come before the INSERTs of pid's new right siblings.
  if (d0 == 0 && dcount > 0 && !is_root) {
    up->push_back(PropEntry{PropEntry::Kind::kUpdate, pid, route,
                            node::SeparatorOf(layout[0]), pid});
  }
  layout[0] = Slice(layout[0].data(), sizeof(PageId));

  const size_t cap = LeafCapacityBytes();
  if (RowsThatFit(layout, cap) == layout.size()) {
    // In place: one batch delete + one batch insert of the rows that change
    // (Section 4.2's "no more than one batchdelete and one batchinsert" per
    // page). When the first child goes and no new row replaces it, the
    // surviving first row is rewritten without its separator.
    const int first_rewritten = d0 == 0 && dcount > 0 && spliced == 0;
    if (dcount + first_rewritten > 0) {
      tree->LogBatchDelete(op, parent, static_cast<SlotId>(d0),
                           static_cast<uint16_t>(dcount + first_rewritten),
                           level);
    }
    Pack(op, parent, static_cast<SlotId>(d0), cap,
         std::span(layout).subspan(d0, spliced + first_rewritten), level);
    parent->latch().UnlockX();
  } else {
    // Overflow: the page splits so that the layout becomes
    // [prefix on pid][new siblings] (Section 5.3.2). The SHRINK bit covers
    // the split case (Section 5.4.2, rule 3).
    parent->header()->flags |= kFlagShrink;
    tree->LogBatchDelete(op, parent, 0, old.nslots(), level);
    size_t r = Pack(op, parent, 0, cap, layout, level);
    parent->latch().UnlockX();
    OIR_CHECK(r >= 1);
    siblings.clear();
    while (r < layout.size()) {
      PageId sid;
      OIR_RETURN_IF_ERROR(space->Allocate(op.ctx, &sid));
      PageRef sib;
      OIR_RETURN_IF_ERROR(FormatLocked(op, nta, sid, level, kInvalidPageId,
                                       kInvalidPageId, kFlagShrink, &sib));
      siblings.emplace_back(node::SeparatorOf(layout[r]), sid);
      const size_t placed =
          Pack(op, &sib, 0, cap, std::span(layout).subspan(r), level);
      OIR_CHECK(placed >= 1);
      r += placed;
      sib.latch().UnlockX();
    }
    if (is_root) {
      // The root split during rebuild propagation: grow the tree with a new
      // root over [pid, siblings...].
      OIR_RETURN_IF_ERROR(tree->NewRoot(op, pid, siblings, level));
    } else {
      for (const auto& [sep, sid] : siblings) {
        up->push_back(
            PropEntry{PropEntry::Kind::kInsert, pid, route, sep, sid});
      }
    }
  }

  // Root collapse: if the root is down to a single child, the tree loses a
  // level.
  if (is_root && layout.size() == 1) {
    OIR_RETURN_IF_ERROR(tree->SetRoot(op, node::ChildOf(layout[0])));
    OIR_RETURN_IF_ERROR(space->Deallocate(op.ctx, pid));
  }

  // Groups run left to right: pid is now the rightmost settled page.
  if (level == 1) *open_left = pid;
  return Status::OK();
}

}  // namespace oir
