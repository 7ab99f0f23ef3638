// vci_index.hpp — a path-compressed, level-compressed binary trie over
// unsigned integer keys (VCIs, route keys, VC ids).
//
// It is the one VCI-keyed container: switch routes, the network's active
// VCs, sighost mappings and AAL5's per-VC state all sit on it.  An ordered
// map pays a pointer chase per comparison, and a hash table's bucket order
// depends on insert/erase history, which would force every audit surface to
// re-sort.  VciIndex follows the LPC-trie design of the Linux
// FIB (fib_trie): internal nodes consume `bits` key bits at `shift`
// (MSB-first), single-child chains are path-compressed away, and a node
// whose subtree has churned enough is rebuilt bottom-up with the widest
// branch factor its key density supports (halving/doubling on density).
// MSB-first child order makes plain in-order traversal yield keys in
// ascending order, so iteration is deterministic and already sorted — the
// property the chaos invariants, resync protocol and byte-identical replay
// pin.
//
// API: find -> V*, insert -> bool(new), emplace (no overwrite), erase,
// operator[], for_each and keys (both ascending).  Any mutation may rebuild
// a subtree and move its values, so a V* or V& is void after the next
// insert or erase.
//
// Only leaves hold a value; an internal node holds its counters and a
// `1 << bits` child array, so the trie's footprint is the live values plus
// a few words per node.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace xunet::util {

template <typename K, typename V>
class VciIndex {
  static_assert(std::is_unsigned_v<K>,
                "VciIndex keys must be unsigned integers");

 public:
  VciIndex() = default;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Pointer to the mapped value, or nullptr.  Stable until the next
  /// mutation (inserts may rebuild the subtree holding the value).
  [[nodiscard]] V* find(K key) noexcept {
    Node* n = root_.get();
    while (n != nullptr && n->bits != 0) {
      n = inner(n)->kids[child_index(n, key)].get();
    }
    return (n != nullptr && n->key == key) ? &leaf(n)->value : nullptr;
  }
  [[nodiscard]] const V* find(K key) const noexcept {
    return const_cast<VciIndex*>(this)->find(key);
  }
  [[nodiscard]] bool contains(K key) const noexcept {
    return find(key) != nullptr;
  }

  /// Insert if absent; returns false (and leaves the value alone) when the
  /// key already exists.
  bool emplace(K key, V value) {
    path_.clear();
    NodePtr* slot = &root_;
    for (;;) {
      Node* n = slot->get();
      if (n == nullptr) {
        *slot = make_leaf(key, std::move(value));
        break;
      }
      if (n->bits == 0) {
        if (n->key == key) return false;
        split(slot, key, std::move(value));
        break;
      }
      const unsigned top = unsigned(n->shift) + n->bits;
      if (top < 64 && (u64(n->key) >> top) != (u64(key) >> top)) {
        split(slot, key, std::move(value));  // diverges above this node
        break;
      }
      path_.push_back(slot);
      slot = &inner(n)->kids[child_index(n, key)];
    }
    ++size_;
    for (NodePtr* s : path_) {
      Inner* in = inner(s->get());
      ++in->count;
      ++in->churn;
    }
    maybe_rebuild();
    return true;
  }

  /// Insert-or-assign; returns true when the key was newly inserted.
  bool insert(K key, V value) {
    if (V* v = find(key)) {
      *v = std::move(value);
      return false;
    }
    return emplace(key, std::move(value));
  }

  V& operator[](K key) {
    if (V* v = find(key)) return *v;
    emplace(key, V{});
    return *find(key);
  }

  bool erase(K key) {
    path_.clear();
    NodePtr* slot = &root_;
    for (;;) {
      Node* n = slot->get();
      if (n == nullptr) return false;
      if (n->bits == 0) {
        if (n->key != key) return false;
        slot->reset();
        break;
      }
      const unsigned top = unsigned(n->shift) + n->bits;
      if (top < 64 && (u64(n->key) >> top) != (u64(key) >> top)) return false;
      path_.push_back(slot);
      slot = &inner(n)->kids[child_index(n, key)];
    }
    --size_;
    // Bottom-up: fix counts, drop emptied nodes, path-compress nodes left
    // with one live child.  Deeper path entries are processed first, so the
    // hoist below never invalidates a slot still to be visited.
    for (std::size_t i = path_.size(); i-- > 0;) {
      Inner* n = inner(path_[i]->get());
      --n->count;
      ++n->churn;
      if (n->count == 0) {
        path_[i]->reset();
        continue;
      }
      NodePtr* only = nullptr;
      int live = 0;
      for (NodePtr& kid : children(n)) {
        if (kid) {
          ++live;
          only = &kid;
        }
      }
      if (live == 1) *path_[i] = std::move(*only);
    }
    if (root_ && root_->bits != 0 && needs_rebuild(inner(root_.get()))) {
      rebuild(&root_);
    }
    return true;
  }

  void clear() {
    root_.reset();
    size_ = 0;
  }

  /// In-order (ascending-key) traversal: fn(const K&, V&).
  template <typename Fn>
  void for_each(Fn&& fn) {
    walk(root_.get(), fn);
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    cwalk(root_.get(), fn);
  }

  /// All keys, ascending.
  [[nodiscard]] std::vector<K> keys() const {
    std::vector<K> out;
    out.reserve(size_);
    for_each([&out](const K& k, const V&) { out.push_back(k); });
    return out;
  }

 private:
  /// Widest branch factor a rebuild may choose (2^6 = 64 children).
  static constexpr unsigned kMaxBits = 6;

  struct Node;
  /// Frees a leaf or an internal node (and its subtree) by its kind.
  struct NodeDelete {
    void operator()(Node* n) const noexcept {
      if (n->bits == 0) {
        delete static_cast<Leaf*>(n);
      } else {
        delete static_cast<Inner*>(n);
      }
    }
  };
  using NodePtr = std::unique_ptr<Node, NodeDelete>;

  /// What leaves and internal nodes share; `bits` tells them apart.
  struct Node {
    K key{};                 ///< leaf key; any subtree key for internals
    std::uint8_t shift = 0;  ///< first key bit this node's index consumes
    std::uint8_t bits = 0;   ///< index width; 0 = leaf
  };
  /// Only leaves hold a value.
  struct Leaf : Node {
    V value;
  };
  struct Inner : Node {
    std::uint32_t count = 0;          ///< live leaves under this node
    std::uint32_t churn = 0;          ///< mutations since (re)built
    std::unique_ptr<NodePtr[]> kids;  ///< 1 << bits children
  };

  static Inner* inner(Node* n) noexcept { return static_cast<Inner*>(n); }
  static Leaf* leaf(Node* n) noexcept { return static_cast<Leaf*>(n); }
  static std::span<NodePtr> children(Inner* n) noexcept {
    return {n->kids.get(), std::size_t{1} << n->bits};
  }
  /// Live leaves under (and including) `n`.
  static std::uint32_t count_of(Node* n) noexcept {
    return n->bits == 0 ? 1 : inner(n)->count;
  }

  static std::uint64_t u64(K k) noexcept {
    return static_cast<std::uint64_t>(k);
  }
  static std::size_t child_index(const Node* n, K key) noexcept {
    return (u64(key) >> n->shift) & ((std::size_t{1} << n->bits) - 1);
  }
  /// Highest bit position where a and b differ (a != b).
  static int top_diff_bit(std::uint64_t a, std::uint64_t b) noexcept {
    return 63 - std::countl_zero(a ^ b);
  }

  static NodePtr make_leaf(K key, V value) {
    return NodePtr(new Leaf{{key}, std::move(value)});
  }
  static NodePtr make_inner(K key, unsigned shift, unsigned bits,
                            std::uint32_t count, std::uint32_t churn) {
    return NodePtr(new Inner{
        {key, static_cast<std::uint8_t>(shift), static_cast<std::uint8_t>(bits)},
        count,
        churn,
        std::make_unique<NodePtr[]>(std::size_t{1} << bits)});
  }

  /// Replace *slot with a 1-bit internal at the highest bit where `key`
  /// diverges from the subtree's keys, holding the old subtree on one side
  /// and a new leaf on the other.
  void split(NodePtr* slot, K key, V value) {
    NodePtr old = std::move(*slot);
    const int p = top_diff_bit(u64(old->key), u64(key));
    NodePtr mid = make_inner(old->key, static_cast<unsigned>(p), 1,
                             count_of(old.get()) + 1, 1);
    const std::size_t side = (u64(key) >> p) & 1u;
    inner(mid.get())->kids[side] = make_leaf(key, std::move(value));
    inner(mid.get())->kids[side ^ 1u] = std::move(old);
    *slot = std::move(mid);
  }

  static bool needs_rebuild(const Inner* n) noexcept {
    return n->churn > std::max<std::uint32_t>(16, n->count);
  }

  /// After an insert: rebuild the topmost over-churned ancestor (halving/
  /// doubling happens inside the rebuild's density-chosen branch factors).
  void maybe_rebuild() {
    for (NodePtr* s : path_) {
      if (needs_rebuild(inner(s->get()))) {
        rebuild(s);
        return;
      }
    }
  }

  void rebuild(NodePtr* slot) {
    collect(*slot, scratch_);
    *slot = build(0, scratch_.size());
    scratch_.clear();  // the moved-from values go with the old subtree
  }

  static void collect(NodePtr& n, std::vector<std::pair<K, V>>& out) {
    if (!n) return;
    if (n->bits == 0) {
      out.emplace_back(n->key, std::move(leaf(n.get())->value));
      return;
    }
    for (NodePtr& kid : children(inner(n.get()))) collect(kid, out);
  }

  /// Build an optimal subtree over scratch_[lo, hi) (sorted, non-empty):
  /// pick the widest branch factor whose slots would be at least half
  /// occupied (the LPC-trie doubling condition), else fall back to a plain
  /// binary split at the highest differing bit.
  NodePtr build(std::size_t lo, std::size_t hi) {
    if (hi - lo == 1) {
      return make_leaf(scratch_[lo].first, std::move(scratch_[lo].second));
    }
    const int p = top_diff_bit(u64(scratch_[lo].first),
                               u64(scratch_[hi - 1].first));
    unsigned bits = 1;
    unsigned shift = static_cast<unsigned>(p);
    for (unsigned b = std::min(kMaxBits, static_cast<unsigned>(p) + 1);
         b >= 2; --b) {
      const unsigned s = static_cast<unsigned>(p) + 1 - b;
      std::size_t distinct = 1;
      for (std::size_t i = lo + 1; i < hi; ++i) {
        if ((u64(scratch_[i].first) >> s) !=
            (u64(scratch_[i - 1].first) >> s)) {
          ++distinct;
        }
      }
      if (distinct * 2 >= (std::size_t{1} << b)) {
        bits = b;
        shift = s;
        break;
      }
    }
    NodePtr n = make_inner(scratch_[lo].first, shift, bits,
                           static_cast<std::uint32_t>(hi - lo), 0);
    std::size_t start = lo;
    while (start < hi) {
      const std::size_t idx =
          (u64(scratch_[start].first) >> shift) &
          ((std::size_t{1} << bits) - 1);
      std::size_t end = start + 1;
      while (end < hi && ((u64(scratch_[end].first) >> shift) &
                          ((std::size_t{1} << bits) - 1)) == idx) {
        ++end;
      }
      inner(n.get())->kids[idx] = build(start, end);
      start = end;
    }
    return n;
  }

  template <typename Fn>
  static void walk(Node* n, Fn& fn) {
    if (n == nullptr) return;
    if (n->bits == 0) {
      fn(static_cast<const K&>(n->key), leaf(n)->value);
      return;
    }
    for (NodePtr& kid : children(inner(n))) walk(kid.get(), fn);
  }
  template <typename Fn>
  static void cwalk(Node* n, Fn& fn) {
    if (n == nullptr) return;
    if (n->bits == 0) {
      fn(static_cast<const K&>(n->key), static_cast<const V&>(leaf(n)->value));
      return;
    }
    for (NodePtr& kid : children(inner(n))) cwalk(kid.get(), fn);
  }

  NodePtr root_;
  std::size_t size_ = 0;
  /// Ancestor slots of the last walk (insert/erase bookkeeping); member to
  /// avoid per-call allocation on the hot path.
  std::vector<NodePtr*> path_;
  /// Rebuild staging; empty between rebuilds, so it holds no values.
  std::vector<std::pair<K, V>> scratch_;
};

}  // namespace xunet::util
