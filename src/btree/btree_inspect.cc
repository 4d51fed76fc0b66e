// Structural validation and statistics collection. These routines assume a
// quiescent tree (no concurrent writers) and take no latches beyond pins —
// they are meant for tests, benchmarks and examples.

#include <set>
#include <string>

#include "btree/btree.h"
#include "util/logging.h"

namespace {
std::string PageCtx(oir::PageId page, const oir::PageHeader* h) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                " (page %u: id=%u level=%u nslots=%u prev=%u next=%u)",
                page, h->page_id, h->level, h->nslots, h->prev_page,
                h->next_page);
  return std::string(buf);
}
}  // namespace

namespace oir {

Status BTree::FirstLeaf(PageId* out) const {
  PageId cur = root();
  for (;;) {
    PageRef ref;
    OIR_RETURN_IF_ERROR(bm_->Fetch(cur, &ref));
    SlottedPage sp(ref.data(), bm_->page_size());
    if (ref.header()->level == kLeafLevel) {
      *out = cur;
      return Status::OK();
    }
    if (sp.nslots() == 0) return Status::Corruption("empty non-leaf page");
    cur = node::ChildOf(sp.Get(0));
  }
}

Status BTree::ValidateSubtree(PageId page, uint16_t expected_level,
                              const std::string& low, const std::string& high,
                              bool has_high, TreeStats* stats,
                              std::vector<PageId>* leaves_in_order) const {
  if (space_->GetState(page) != PageState::kAllocated) {
    return Status::Corruption("tree references non-allocated page");
  }
  PageRef ref;
  OIR_RETURN_IF_ERROR(bm_->Fetch(page, &ref));
  SlottedPage sp(ref.data(), bm_->page_size());
  const PageHeader* h = ref.header();
  if (h->page_id != page) {
    return Status::Corruption("page id mismatch" + PageCtx(page, h));
  }
  if (h->level != expected_level) {
    return Status::Corruption("page level mismatch, expected level " +
                              std::to_string(expected_level) +
                              PageCtx(page, h));
  }
  if (!sp.Validate()) return Status::Corruption("slotted page inconsistent");

  if (expected_level == kLeafLevel) {
    ++stats->num_leaf_pages;
    stats->num_keys += sp.nslots();
    stats->leaf_bytes_used += sp.UsedSpace();
    stats->leaf_bytes_capacity += bm_->page_size() - kPageHeaderSize;
    leaves_in_order->push_back(page);
    // Rows sorted and within [low, high).
    for (SlotId i = 0; i < sp.nslots(); ++i) {
      Slice row = sp.Get(i);
      if (i > 0 && !(sp.Get(i - 1).compare(row) < 0)) {
        return Status::Corruption("leaf rows out of order");
      }
      if (row.compare(Slice(low)) < 0) {
        return Status::Corruption("leaf row below subtree lower bound");
      }
      if (has_high && row.compare(Slice(high)) >= 0) {
        return Status::Corruption("leaf row above subtree upper bound");
      }
    }
    return Status::OK();
  }

  // Non-leaf page.
  ++stats->num_nonleaf_pages;
  if (sp.nslots() == 0) return Status::Corruption("empty non-leaf page");
  if (!node::SeparatorOf(sp.Get(0)).empty()) {
    return Status::Corruption("first non-leaf row has a separator");
  }
  for (SlotId i = 0; i < sp.nslots(); ++i) {
    Slice row = sp.Get(i);
    stats->nonleaf_rows += 1;
    stats->nonleaf_row_bytes += row.size();
    Slice sep = node::SeparatorOf(row);
    if (i >= 1) {
      if (sep.compare(Slice(low)) < 0) {
        return Status::Corruption("separator below subtree lower bound");
      }
      if (has_high && sep.compare(Slice(high)) > 0) {
        return Status::Corruption("separator above subtree upper bound");
      }
      if (i >= 2 &&
          !(node::SeparatorOf(sp.Get(i - 1)).compare(sep) < 0)) {
        return Status::Corruption("separators out of order");
      }
    }
    std::string child_low = i == 0 ? low : sep.ToString();
    std::string child_high;
    bool child_has_high = true;
    if (i + 1 < sp.nslots()) {
      child_high = node::SeparatorOf(sp.Get(i + 1)).ToString();
    } else {
      child_high = high;
      child_has_high = has_high;
    }
    OIR_RETURN_IF_ERROR(ValidateSubtree(
        node::ChildOf(row), static_cast<uint16_t>(expected_level - 1),
        child_low, child_high, child_has_high, stats, leaves_in_order));
  }
  return Status::OK();
}

Status BTree::Validate(TreeStats* stats) const {
  *stats = TreeStats();
  PageId root_id = root();
  PageRef ref;
  OIR_RETURN_IF_ERROR(bm_->Fetch(root_id, &ref));
  uint16_t root_level = ref.header()->level;
  ref.Release();
  stats->height = root_level + 1;

  std::vector<PageId> leaves_in_order;
  OIR_RETURN_IF_ERROR(ValidateSubtree(root_id, root_level, std::string(),
                                      std::string(), /*has_high=*/false,
                                      stats, &leaves_in_order));

  // Leaf chain must visit exactly the leaves found top-down, in order, with
  // consistent back links.
  PageId expected_prev = kInvalidPageId;
  for (size_t i = 0; i < leaves_in_order.size(); ++i) {
    PageRef leaf;
    OIR_RETURN_IF_ERROR(bm_->Fetch(leaves_in_order[i], &leaf));
    if (leaf.header()->prev_page != expected_prev) {
      return Status::Corruption("leaf chain prev link broken, expected prev " +
                                std::to_string(expected_prev) +
                                PageCtx(leaves_in_order[i], leaf.header()));
    }
    PageId next = leaf.header()->next_page;
    PageId expected_next = i + 1 < leaves_in_order.size()
                               ? leaves_in_order[i + 1]
                               : kInvalidPageId;
    if (next != expected_next) {
      return Status::Corruption("leaf chain next link broken, expected next " +
                                std::to_string(expected_next) +
                                PageCtx(leaves_in_order[i], leaf.header()));
    }
    expected_prev = leaves_in_order[i];
  }

  // Clustering metric: number of maximal runs of physically consecutive
  // leaf pages in key order (Section 6.1 — a freshly rebuilt index should
  // approach one run per allocation chunk).
  uint64_t runs = leaves_in_order.empty() ? 0 : 1;
  for (size_t i = 1; i < leaves_in_order.size(); ++i) {
    if (leaves_in_order[i] != leaves_in_order[i - 1] + 1) ++runs;
  }
  stats->leaf_seq_runs = runs;
  return Status::OK();
}

namespace {
void AppendPrintable(const Slice& s, std::string* out) {
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (c >= 0x20 && c < 0x7f) {
      out->push_back(c);
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\x%02x",
                    static_cast<unsigned char>(c));
      out->append(buf);
    }
  }
}
}  // namespace

Status BTree::Dump(std::string* out, bool include_rows) const {
  struct Walker {
    const BTree* tree;
    std::string* out;
    bool include_rows;

    Status Walk(PageId page, int depth) {
      PageRef ref;
      OIR_RETURN_IF_ERROR(tree->bm_->Fetch(page, &ref));
      SlottedPage sp(ref.data(), tree->bm_->page_size());
      const PageHeader* h = ref.header();
      out->append(depth * 2, ' ');
      char buf[128];
      if (h->level == kLeafLevel) {
        std::snprintf(buf, sizeof(buf),
                      "leaf %u (rows=%u prev=%u next=%u used=%u)", page,
                      h->nslots, h->prev_page, h->next_page, sp.UsedSpace());
        out->append(buf);
        if (include_rows) {
          out->append(" [");
          for (SlotId i = 0; i < sp.nslots(); ++i) {
            if (i) out->push_back(' ');
            AppendPrintable(UserKeyOf(sp.Get(i)), out);
            std::snprintf(buf, sizeof(buf), ":%llu",
                          (unsigned long long)RowIdOf(sp.Get(i)));
            out->append(buf);
          }
          out->push_back(']');
        } else if (sp.nslots() > 0) {
          out->append(" first=");
          AppendPrintable(UserKeyOf(sp.Get(0)), out);
        }
        out->push_back('\n');
        return Status::OK();
      }
      std::snprintf(buf, sizeof(buf), "node %u level %u (entries=%u)", page,
                    h->level, h->nslots);
      out->append(buf);
      out->push_back('\n');
      for (SlotId i = 0; i < sp.nslots(); ++i) {
        out->append(depth * 2 + 2, ' ');
        if (i == 0) {
          out->append("(-inf)");
        } else {
          out->append("sep=");
          AppendPrintable(node::SeparatorOf(sp.Get(i)), out);
        }
        out->push_back('\n');
        OIR_RETURN_IF_ERROR(Walk(node::ChildOf(sp.Get(i)), depth + 1));
      }
      return Status::OK();
    }
  };
  Walker w{this, out, include_rows};
  char buf[64];
  std::snprintf(buf, sizeof(buf), "root: page %u\n", root());
  out->append(buf);
  return w.Walk(root(), 0);
}

}  // namespace oir
