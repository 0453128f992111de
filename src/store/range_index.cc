#include "store/range_index.h"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "common/bytes.h"

namespace leed::store {
namespace {

constexpr size_t kPrefixBytes = 16;

uint64_t ToBigEndian(uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    return __builtin_bswap64(v);
  }
  return v;
}

uint64_t LoadBigEndian(const char* p) {
  uint64_t v;
  CopyBytes(&v, p, sizeof v);
  return ToBigEndian(v);
}

void StoreBigEndian(char* p, uint64_t v) {
  v = ToBigEndian(v);
  CopyBytes(p, &v, sizeof v);
}

char* NewTail(std::string_view bytes) {
  if (bytes.empty()) return nullptr;
  char* t = new char[bytes.size()];
  CopyBytes(t, bytes.data(), bytes.size());
  return t;
}

// The first 16 key bytes, zero-padded, as two big-endian words: comparing
// (hi, lo) as integers orders keys like comparing their first 16 bytes as
// unsigned chars, with a shorter key's padding sorting first.
struct Prefix {
  uint64_t hi;
  uint64_t lo;
};

}  // namespace

// A search key with its prefix words computed once per operation.
struct RangeIndex::Key {
  Prefix prefix{0, 0};
  std::string_view bytes;

  explicit Key(std::string_view k) : bytes(k) {
    char buf[kPrefixBytes] = {};
    CopyBytes(buf, k.data(), std::min(k.size(), kPrefixBytes));
    prefix = {LoadBigEndian(buf), LoadBigEndian(buf + 8)};
  }
  std::string_view tail() const {
    return bytes.size() > kPrefixBytes ? bytes.substr(kPrefixBytes)
                                       : std::string_view();
  }
};

// B+-tree: all key/location pairs live in leaves; inner nodes hold
// separator keys where separator[i] == smallest key of child[i+1]'s
// subtree. Deletion removes from the leaf without rebalancing (nodes may
// underflow; empty leaves are pruned) — fine for an index whose workload is
// overwhelmingly upsert/lookup, and documented in CheckInvariants.
//
// Every array is trivially copyable, so inserting and splitting shift
// plain words. Key i owns tail[i] (bytes [16, len) of a longer key, null
// otherwise); a separator copied up from a leaf owns its own tail.
struct RangeIndex::Node {
  bool leaf = true;
  uint8_t count = 0;  // keys in use
  Prefix prefix[kFanout] = {};
  uint32_t len[kFanout] = {};
  char* tail[kFanout] = {};

  std::string_view TailOf(int i) const {
    if (len[i] <= kPrefixBytes) return std::string_view();
    return std::string_view(tail[i], len[i] - kPrefixBytes);
  }

  // <0, 0, >0 as `key` sorts before, equal to, after key i.
  int Compare(const Key& key, int i) const {
    const Prefix& p = prefix[i];
    if (key.prefix.hi != p.hi) return key.prefix.hi < p.hi ? -1 : 1;
    if (key.prefix.lo != p.lo) return key.prefix.lo < p.lo ? -1 : 1;
    const size_t n = len[i];
    if (key.bytes.size() > kPrefixBytes || n > kPrefixBytes) {
      if (int c = key.tail().compare(TailOf(i)); c != 0) return c;
    }
    return (key.bytes.size() > n) - (key.bytes.size() < n);
  }
  // First key >= `key`.
  int LowerBound(const Key& key) const {
    int lo = 0;
    int hi = count;
    while (lo < hi) {
      const int mid = (lo + hi) / 2;
      if (Compare(key, mid) > 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }
  // First key > `key`: the child subtree `key` belongs to.
  int UpperBound(const Key& key) const {
    int lo = 0;
    int hi = count;
    while (lo < hi) {
      const int mid = (lo + hi) / 2;
      if (Compare(key, mid) >= 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  // Key i as bytes; `buf` holds a short key, `scratch` a long one.
  std::string_view KeyAt(int i, char* buf, std::string* scratch) const {
    StoreBigEndian(buf, prefix[i].hi);
    StoreBigEndian(buf + 8, prefix[i].lo);
    if (len[i] <= kPrefixBytes) return std::string_view(buf, len[i]);
    scratch->assign(buf, kPrefixBytes);
    scratch->append(TailOf(i));
    return *scratch;
  }

  // Opens key slot i by shifting keys [i, count) right; count unchanged.
  void OpenKey(int i) {
    std::copy_backward(prefix + i, prefix + count, prefix + count + 1);
    std::copy_backward(len + i, len + count, len + count + 1);
    std::copy_backward(tail + i, tail + count, tail + count + 1);
  }
  // Closes key slot i (its tail already freed or handed off).
  void CloseKey(int i) {
    std::copy(prefix + i + 1, prefix + count, prefix + i);
    std::copy(len + i + 1, len + count, len + i);
    std::copy(tail + i + 1, tail + count, tail + i);
  }
  // Hands keys [from, count) to dst starting at slot 0.
  void MoveKeysTo(int from, Node* dst) const {
    std::copy(prefix + from, prefix + count, dst->prefix);
    std::copy(len + from, len + count, dst->len);
    std::copy(tail + from, tail + count, dst->tail);
  }
};

struct RangeIndex::Leaf : Node {
  ValueLoc loc[kFanout];
};

// child has count + 1 entries; one key and child beyond the bounds exist
// transiently between an insert and the split it triggers.
struct RangeIndex::Inner : Node {
  Node* child[kFanout + 1] = {};
};

// A node split: the new right sibling and its separator key (owned).
struct RangeIndex::Split {
  Node* right = nullptr;
  Prefix prefix{0, 0};
  uint32_t len = 0;
  char* tail = nullptr;
};

RangeIndex::RangeIndex() : root_(new Leaf) {}
RangeIndex::~RangeIndex() { Free(root_); }

void RangeIndex::Free(Node* node) {
  for (int i = 0; i < node->count; ++i) delete[] node->tail[i];
  if (node->leaf) {
    delete static_cast<Leaf*>(node);
    return;
  }
  Inner* inner = static_cast<Inner*>(node);
  for (int i = 0; i <= inner->count; ++i) Free(inner->child[i]);
  delete inner;
}

RangeIndex::Split RangeIndex::InsertRec(Node* node, const Key& key,
                                        ValueLoc loc, bool* inserted) {
  Split split;
  if (node->leaf) {
    Leaf* leaf = static_cast<Leaf*>(node);
    const int i = leaf->LowerBound(key);
    if (i < leaf->count && leaf->Compare(key, i) == 0) {
      leaf->loc[i] = loc;  // overwrite
      return split;
    }
    leaf->OpenKey(i);
    std::copy_backward(leaf->loc + i, leaf->loc + leaf->count,
                       leaf->loc + leaf->count + 1);
    leaf->prefix[i] = key.prefix;
    leaf->len[i] = static_cast<uint32_t>(key.bytes.size());
    leaf->tail[i] = NewTail(key.tail());
    leaf->loc[i] = loc;
    ++leaf->count;
    *inserted = true;
    if (leaf->count >= kFanout) {
      const int mid = leaf->count / 2;
      Leaf* right = new Leaf;
      leaf->MoveKeysTo(mid, right);
      std::copy(leaf->loc + mid, leaf->loc + leaf->count, right->loc);
      right->count = static_cast<uint8_t>(leaf->count - mid);
      leaf->count = static_cast<uint8_t>(mid);
      split.right = right;
      split.prefix = right->prefix[0];
      split.len = right->len[0];
      split.tail = NewTail(right->TailOf(0));
    }
    return split;
  }

  Inner* inner = static_cast<Inner*>(node);
  const int ci = inner->UpperBound(key);
  Split child = InsertRec(inner->child[ci], key, loc, inserted);
  if (!child.right) return split;
  inner->OpenKey(ci);
  std::copy_backward(inner->child + ci + 1, inner->child + inner->count + 1,
                     inner->child + inner->count + 2);
  inner->prefix[ci] = child.prefix;
  inner->len[ci] = child.len;
  inner->tail[ci] = child.tail;
  inner->child[ci + 1] = child.right;
  ++inner->count;
  if (inner->count + 1 > kFanout) {
    const int mid = inner->count / 2;  // separator promoted upward
    Inner* right = new Inner;
    right->leaf = false;
    split.prefix = inner->prefix[mid];
    split.len = inner->len[mid];
    split.tail = inner->tail[mid];
    inner->MoveKeysTo(mid + 1, right);
    std::copy(inner->child + mid + 1, inner->child + inner->count + 1,
              right->child);
    right->count = static_cast<uint8_t>(inner->count - mid - 1);
    inner->count = static_cast<uint8_t>(mid);
    split.right = right;
  }
  return split;
}

bool RangeIndex::Upsert(std::string_view key, ValueLoc loc) {
  bool inserted = false;
  Split split = InsertRec(root_, Key(key), loc, &inserted);
  if (split.right) {
    Inner* root = new Inner;
    root->leaf = false;
    root->count = 1;
    root->prefix[0] = split.prefix;
    root->len[0] = split.len;
    root->tail[0] = split.tail;
    root->child[0] = root_;
    root->child[1] = split.right;
    root_ = root;
  }
  if (inserted) ++size_;
  return inserted;
}

RangeIndex::Leaf* RangeIndex::FindLeaf(const Key& key) const {
  Node* node = root_;
  while (!node->leaf) {
    Inner* inner = static_cast<Inner*>(node);
    node = inner->child[inner->UpperBound(key)];
  }
  return static_cast<Leaf*>(node);
}

std::optional<RangeIndex::ValueLoc> RangeIndex::Find(
    std::string_view key) const {
  const Key k(key);
  const Leaf* leaf = FindLeaf(k);
  const int i = leaf->LowerBound(k);
  if (i < leaf->count && leaf->Compare(k, i) == 0) return leaf->loc[i];
  return std::nullopt;
}

bool RangeIndex::Repair(std::string_view key, const ValueLoc& from,
                        const ValueLoc& to) {
  const Key k(key);
  Leaf* leaf = FindLeaf(k);
  const int i = leaf->LowerBound(k);
  if (i == leaf->count || leaf->Compare(k, i) != 0) return false;
  if (!(leaf->loc[i] == from)) return false;  // a newer PUT owns this entry
  leaf->loc[i] = to;
  return true;
}

bool RangeIndex::EraseRec(Node* node, const Key& key) {
  if (node->leaf) {
    Leaf* leaf = static_cast<Leaf*>(node);
    const int i = leaf->LowerBound(key);
    if (i == leaf->count || leaf->Compare(key, i) != 0) return false;
    delete[] leaf->tail[i];
    leaf->CloseKey(i);
    std::copy(leaf->loc + i + 1, leaf->loc + leaf->count, leaf->loc + i);
    --leaf->count;
    return true;
  }
  Inner* inner = static_cast<Inner*>(node);
  const int ci = inner->UpperBound(key);
  Node* child = inner->child[ci];
  const bool erased = EraseRec(child, key);
  // Prune empty leaves (no rebalancing).
  if (erased && child->leaf && child->count == 0 && inner->count > 0) {
    Free(child);
    std::copy(inner->child + ci + 1, inner->child + inner->count + 1,
              inner->child + ci);
    const int sep = ci > 0 ? ci - 1 : 0;
    delete[] inner->tail[sep];
    inner->CloseKey(sep);
    --inner->count;
  }
  return erased;
}

bool RangeIndex::Erase(std::string_view key) {
  const bool erased = EraseRec(root_, Key(key));
  if (erased) --size_;
  // Collapse a single-child root.
  while (!root_->leaf && root_->count == 0) {
    Inner* old = static_cast<Inner*>(root_);
    root_ = old->child[0];
    delete old;
  }
  return erased;
}

void RangeIndex::Clear() {
  Free(root_);
  root_ = new Leaf;
  size_ = 0;
}

int RangeIndex::height() const {
  int h = 1;
  const Node* node = root_;
  while (!node->leaf) {
    node = static_cast<const Inner*>(node)->child[0];
    ++h;
  }
  return h;
}

bool RangeIndex::VisitRec(
    const Node* node, const Key* start,
    const std::function<bool(std::string_view, const ValueLoc&)>& fn) const {
  if (node->leaf) {
    const Leaf* leaf = static_cast<const Leaf*>(node);
    char buf[kPrefixBytes];
    std::string scratch;
    for (int i = start ? leaf->LowerBound(*start) : 0; i < leaf->count; ++i) {
      if (!fn(leaf->KeyAt(i, buf, &scratch), leaf->loc[i])) return false;
    }
    return true;
  }
  const Inner* inner = static_cast<const Inner*>(node);
  for (int ci = start ? inner->UpperBound(*start) : 0; ci <= inner->count;
       ++ci) {
    if (!VisitRec(inner->child[ci], start, fn)) return false;
    // Subtrees right of the entry subtree are visited whole.
    start = nullptr;
  }
  return true;
}

void RangeIndex::VisitFrom(
    std::string_view start,
    const std::function<bool(std::string_view, const ValueLoc&)>& fn) const {
  const Key k(start);
  VisitRec(root_, &k, fn);
}

void RangeIndex::Visit(
    const std::function<void(std::string_view, const ValueLoc&)>& fn) const {
  VisitFrom("", [&fn](std::string_view k, const ValueLoc& l) {
    fn(k, l);
    return true;
  });
}

bool RangeIndex::CheckInvariants() const {
  // Keys strictly increase in-order; all leaves at the same depth; node
  // sizes within bounds; tails exactly on keys longer than the prefix;
  // size_ matches the entry count.
  std::string prev;
  bool first = true;
  bool ordered = true;
  size_t count = 0;
  Visit([&](std::string_view k, const ValueLoc&) {
    if (!first && prev >= k) ordered = false;
    prev = k;
    first = false;
    ++count;
  });
  if (!ordered || count != size_) return false;

  int leaf_depth = -1;
  bool sound = true;
  std::function<void(const Node*, int)> walk = [&](const Node* n, int depth) {
    if (!sound) return;
    for (int i = 0; i < n->count; ++i) {
      if ((n->len[i] > kPrefixBytes) != (n->tail[i] != nullptr)) sound = false;
    }
    if (n->leaf) {
      if (leaf_depth < 0) leaf_depth = depth;
      if (depth != leaf_depth) sound = false;
      if (n->count >= kFanout) sound = false;
      return;
    }
    const Inner* inner = static_cast<const Inner*>(n);
    if (inner->count + 1 > kFanout) sound = false;
    for (int i = 0; i <= inner->count && sound; ++i) {
      if (inner->child[i] == nullptr) {
        sound = false;
        return;
      }
      walk(inner->child[i], depth + 1);
    }
  };
  walk(root_, 0);
  return sound;
}

std::string RangeIndex::DebugDump() const {
  std::string out;
  out.reserve(size_ * 32);
  Visit([&out](std::string_view k, const ValueLoc& l) {
    for (char c : k) {
      if (c <= ' ' || c == '%' || c == 0x7f) {
        char esc[4];
        std::snprintf(esc, sizeof esc, "%%%02x", static_cast<unsigned char>(c));
        out += esc;
      } else {
        out += c;
      }
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, " %u %llu %u\n", static_cast<unsigned>(l.ssd),
                  static_cast<unsigned long long>(l.offset), l.value_len);
    out += buf;
  });
  return out;
}

}  // namespace leed::store
