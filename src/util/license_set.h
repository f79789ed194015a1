#ifndef GEOLIC_UTIL_LICENSE_SET_H_
#define GEOLIC_UTIL_LICENSE_SET_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/check.h"

namespace geolic {

// Inline fast-path width: sets whose highest license index is below 64 are
// stored in one word with no allocation — the representation (and exact
// semantics) of the historical `LicenseMask = uint64_t`. Grouping keeps
// per-group sets this small on every catalog the paper evaluates.
inline constexpr int kMaxLicensesInline = 64;

// Hard cap on license indexes per (content, permission) domain. Dense
// catalogs can exceed 64 redistribution licenses; sets up to this bound
// spill to a heap-allocated word span.
inline constexpr int kMaxLicensesLarge = 1024;

// Words needed for a full-width set.
inline constexpr int kMaxLicenseWords = kMaxLicensesLarge / 64;

// A set of redistribution licenses: bit i set means the i-th redistribution
// license (0-based internally; the paper's L_D^{i+1}) is in the set.
//
// Value type with small-size optimization: one inline uint64_t while every
// member index is < 64 (no allocation, bit-identical semantics to the seed
// uint64_t mask), spilling to an owned word span for indexes up to
// kMaxLicensesLarge. The canonical form trims trailing zero words, so a set
// whose members all fit in one word is ALWAYS inline — equality, ordering
// and hashing never depend on how a set was built.
//
// Ordering (operator<) is numeric big-integer order, identical to uint64_t
// comparison for inline sets, so containers keyed by sets iterate in the
// same order the seed code did.
class LicenseSet {
 public:
  constexpr LicenseSet() noexcept : num_words_(1), inline_word_(0) {}

  LicenseSet(const LicenseSet& other) { CopyFrom(other); }
  LicenseSet(LicenseSet&& other) noexcept
      : num_words_(other.num_words_), inline_word_(other.inline_word_) {
    other.num_words_ = 1;
    other.inline_word_ = 0;
  }
  LicenseSet& operator=(const LicenseSet& other) {
    if (this != &other) {
      DestroyHeap();
      CopyFrom(other);
    }
    return *this;
  }
  LicenseSet& operator=(LicenseSet&& other) noexcept {
    if (this != &other) {
      DestroyHeap();
      num_words_ = other.num_words_;
      inline_word_ = other.inline_word_;
      other.num_words_ = 1;
      other.inline_word_ = 0;
    }
    return *this;
  }
  ~LicenseSet() { DestroyHeap(); }

  // ---- Factories -----------------------------------------------------------

  // The set whose bits are exactly `word` (indexes 0..63) — the seed
  // LicenseMask representation, and the fast path everywhere.
  static LicenseSet FromWord(uint64_t word) {
    LicenseSet set;
    set.inline_word_ = word;
    return set;
  }

  // Little-endian word span; trailing zero words are trimmed.
  static LicenseSet FromWords(std::span<const uint64_t> words);

  // Set with the single license `index`. Requires index in
  // [0, kMaxLicensesLarge).
  static LicenseSet Singleton(int index) {
    GEOLIC_DCHECK(index >= 0 && index < kMaxLicensesLarge);
    if (index < kMaxLicensesInline) {
      return FromWord(uint64_t{1} << index);
    }
    return SingletonSlow(index);
  }

  // The full set {0, .., n-1}. Requires n in [0, kMaxLicensesLarge].
  static LicenseSet Full(int n);

  // Builds a set from 0-based indexes. Duplicates collapse.
  static LicenseSet FromIndexes(const std::vector<int>& indexes);

  // ---- Observers -----------------------------------------------------------

  bool Empty() const { return num_words_ == 1 && inline_word_ == 0; }

  // Number of licenses in the set (popcount).
  int Size() const {
    if (num_words_ == 1) {
      return std::popcount(inline_word_);
    }
    int size = 0;
    for (uint32_t w = 0; w < num_words_; ++w) {
      size += std::popcount(heap_[w]);
    }
    return size;
  }

  // True iff license `index` is in the set. Indexes beyond the stored
  // width are simply absent (no precondition).
  bool Contains(int index) const {
    GEOLIC_DCHECK(index >= 0);
    const uint32_t w = static_cast<uint32_t>(index) / 64;
    if (w >= num_words_) {
      return false;
    }
    return (words()[w] >> (static_cast<uint32_t>(index) % 64)) & 1;
  }

  // True iff this ⊆ `superset`.
  bool IsSubsetOf(const LicenseSet& superset) const {
    if (num_words_ == 1 && superset.num_words_ == 1) {
      return (inline_word_ & ~superset.inline_word_) == 0;
    }
    if (num_words_ > superset.num_words_) {
      return false;  // Canonical form: the top word is non-zero.
    }
    const uint64_t* a = words();
    const uint64_t* b = superset.words();
    for (uint32_t w = 0; w < num_words_; ++w) {
      if ((a[w] & ~b[w]) != 0) {
        return false;
      }
    }
    return true;
  }

  // True iff the sets share a license.
  bool Intersects(const LicenseSet& other) const {
    const uint32_t common = num_words_ < other.num_words_ ? num_words_
                                                          : other.num_words_;
    const uint64_t* a = words();
    const uint64_t* b = other.words();
    for (uint32_t w = 0; w < common; ++w) {
      if ((a[w] & b[w]) != 0) {
        return true;
      }
    }
    return false;
  }

  // 0-based index of the lowest license. Requires a non-empty set.
  int Lowest() const {
    GEOLIC_DCHECK(!Empty());
    const uint64_t* a = words();
    for (uint32_t w = 0;; ++w) {
      if (a[w] != 0) {
        return static_cast<int>(w) * 64 + std::countr_zero(a[w]);
      }
    }
  }

  // 0-based index of the highest license. Requires a non-empty set.
  int Highest() const {
    GEOLIC_DCHECK(!Empty());
    // Canonical form: the top word of a spilled set is non-zero.
    const uint32_t top = num_words_ - 1;
    return static_cast<int>(top) * 64 + 63 - std::countl_zero(words()[top]);
  }

  // Number of stored words (>= 1). 1 ⇔ inline representation.
  int WordCount() const { return static_cast<int>(num_words_); }

  // Word `w` of the set, zero-extended beyond the stored width.
  uint64_t Word(int w) const {
    GEOLIC_DCHECK(w >= 0);
    return static_cast<uint32_t>(w) < num_words_
               ? words()[static_cast<uint32_t>(w)]
               : 0;
  }

  // The inline word. Requires every member index < 64 (WordCount() == 1);
  // used where sets index dense tables or meet fixed-width formats.
  uint64_t AsWord() const {
    GEOLIC_DCHECK(num_words_ == 1);
    return inline_word_;
  }

  std::span<const uint64_t> WordSpan() const { return {words(), num_words_}; }

  // Ascending list of license indexes (how the validation tree and the
  // paper's log table spell a set: {L1, L2, L4} with increasing indexes).
  std::vector<int> ToIndexes() const;

  // Renders the set as the paper writes it: "{L1, L2, L4}" with 1-based
  // license numbers. "{}" for the empty set.
  std::string ToString() const;

  // Lowercase hex with "0x" prefix and no leading zeros ("0x0" for the
  // empty set) — identical to the seed's printf("0x%" PRIx64) for inline
  // sets, arbitrary width beyond.
  std::string ToHex() const;

  // Parses ToHex output (case-insensitive, "0x" prefix optional).
  // Rejects sets wider than kMaxLicensesLarge.
  static bool FromHex(std::string_view text, LicenseSet* out);

  // ---- Mutators ------------------------------------------------------------

  void Clear() {
    DestroyHeap();
    num_words_ = 1;
    inline_word_ = 0;
  }

  // Adds license `index`. Requires index in [0, kMaxLicensesLarge).
  void Add(int index) {
    GEOLIC_DCHECK(index >= 0 && index < kMaxLicensesLarge);
    const uint32_t w = static_cast<uint32_t>(index) / 64;
    if (w < num_words_) {
      mutable_words()[w] |= uint64_t{1} << (static_cast<uint32_t>(index) % 64);
      return;
    }
    AddSlow(index);
  }

  // Removes license `index` if present.
  void Remove(int index) {
    GEOLIC_DCHECK(index >= 0);
    const uint32_t w = static_cast<uint32_t>(index) / 64;
    if (w >= num_words_) {
      return;
    }
    mutable_words()[w] &=
        ~(uint64_t{1} << (static_cast<uint32_t>(index) % 64));
    if (w == num_words_ - 1) {
      Normalize();
    }
  }

  // Removes the lowest license. Requires a non-empty set (the classic
  // `mask &= mask - 1` step of index-iteration loops).
  void RemoveLowest() {
    GEOLIC_DCHECK(!Empty());
    uint64_t* a = mutable_words();
    for (uint32_t w = 0;; ++w) {
      if (a[w] != 0) {
        a[w] &= a[w] - 1;
        if (w == num_words_ - 1) {
          Normalize();
        }
        return;
      }
    }
  }

  LicenseSet& operator|=(const LicenseSet& other);
  LicenseSet& operator&=(const LicenseSet& other);
  // Set difference: this \ other.
  LicenseSet& operator-=(const LicenseSet& other);

  friend LicenseSet operator|(LicenseSet a, const LicenseSet& b) {
    a |= b;
    return a;
  }
  friend LicenseSet operator&(LicenseSet a, const LicenseSet& b) {
    a &= b;
    return a;
  }
  friend LicenseSet operator-(LicenseSet a, const LicenseSet& b) {
    a -= b;
    return a;
  }

  // ---- Comparisons ---------------------------------------------------------

  friend bool operator==(const LicenseSet& a, const LicenseSet& b) {
    if (a.num_words_ != b.num_words_) {
      return false;  // Canonical form.
    }
    if (a.num_words_ == 1) {
      return a.inline_word_ == b.inline_word_;
    }
    return std::memcmp(a.heap_, b.heap_, a.num_words_ * sizeof(uint64_t)) ==
           0;
  }
  friend bool operator!=(const LicenseSet& a, const LicenseSet& b) {
    return !(a == b);
  }
  // Numeric big-integer order (equals uint64_t order for inline sets).
  friend bool operator<(const LicenseSet& a, const LicenseSet& b) {
    if (a.num_words_ != b.num_words_) {
      return a.num_words_ < b.num_words_;  // Canonical: top word non-zero.
    }
    const uint64_t* wa = a.words();
    const uint64_t* wb = b.words();
    for (uint32_t w = a.num_words_; w-- > 0;) {
      if (wa[w] != wb[w]) {
        return wa[w] < wb[w];
      }
    }
    return false;
  }

  size_t Hash() const {
    // splitmix64-style per-word mix, order-dependent combine.
    uint64_t h = 0x9e3779b97f4a7c15ull ^ num_words_;
    const uint64_t* a = words();
    for (uint32_t w = 0; w < num_words_; ++w) {
      uint64_t x = a[w] + 0x9e3779b97f4a7c15ull + h;
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
      h = x ^ (x >> 31);
    }
    return static_cast<size_t>(h);
  }

  // ---- Index iteration -----------------------------------------------------

  // Forward iterator over the ascending license indexes of a set. The set
  // must outlive the iteration.
  class IndexIterator {
   public:
    using value_type = int;
    IndexIterator() : words_(nullptr), num_words_(0), word_(0), bits_(0) {}
    IndexIterator(const uint64_t* words, uint32_t num_words)
        : words_(words), num_words_(num_words), word_(0), bits_(words[0]) {
      SkipEmptyWords();
    }

    int operator*() const {
      return static_cast<int>(word_) * 64 + std::countr_zero(bits_);
    }
    IndexIterator& operator++() {
      bits_ &= bits_ - 1;
      SkipEmptyWords();
      return *this;
    }
    friend bool operator==(const IndexIterator& a, const IndexIterator& b) {
      // Only end-comparison is meaningful; end ⇔ exhausted.
      return a.Exhausted() == b.Exhausted();
    }
    friend bool operator!=(const IndexIterator& a, const IndexIterator& b) {
      return !(a == b);
    }

   private:
    bool Exhausted() const { return bits_ == 0 && word_ + 1 >= num_words_; }
    void SkipEmptyWords() {
      while (bits_ == 0 && word_ + 1 < num_words_) {
        bits_ = words_[++word_];
      }
    }
    const uint64_t* words_;
    uint32_t num_words_;
    uint32_t word_;
    uint64_t bits_;
  };

  struct IndexRange {
    IndexIterator begin_it;
    IndexIterator begin() const { return begin_it; }
    IndexIterator end() const { return IndexIterator(); }
  };

  // `for (int index : set.Indexes()) { ... }` — ascending.
  IndexRange Indexes() const {
    return IndexRange{IndexIterator(words(), num_words_)};
  }

 private:
  static LicenseSet SingletonSlow(int index);
  void AddSlow(int index);

  // All heap word spans go through these: a thread-local free-list pool
  // (bucketed by exact word count) recycles spans so steady-state request
  // traffic on wide catalogs performs no heap allocation. Compiled down to
  // plain new[]/delete[] when GEOLIC_LICENSE_SET_NO_POOL is defined
  // (sanitizer builds — the pool would mask use-after-free).
  static uint64_t* AllocWords(uint32_t num_words);
  static void FreeWords(uint64_t* span, uint32_t num_words);

  const uint64_t* words() const {
    return num_words_ == 1 ? &inline_word_ : heap_;
  }
  uint64_t* mutable_words() { return num_words_ == 1 ? &inline_word_ : heap_; }

  void DestroyHeap() {
    if (num_words_ > 1) {
      FreeWords(heap_, num_words_);
    }
  }
  void CopyFrom(const LicenseSet& other);
  // Restores the canonical form after a mutation that may have zeroed the
  // top word(s): trims, collapsing to inline when one word remains.
  void Normalize();

  uint32_t num_words_;  // >= 1; == 1 ⇔ inline representation.
  union {
    uint64_t inline_word_;  // num_words_ == 1.
    uint64_t* heap_;        // num_words_ > 1; owned, [num_words_] words.
  };
};

// Streams as the paper's {L1, L2, ...} notation; also what gtest prints
// on assertion failures.
inline std::ostream& operator<<(std::ostream& os, const LicenseSet& set) {
  return os << set.ToString();
}

// Iterates every non-empty subset of `set` in the standard descending
// submask order (big-integer `subset = (subset − 1) & set`):
//
//   for (SubsetIterator it(set); !it.Done(); it.Next()) { use it.subset(); }
//
// Enumerates 2^|set| − 1 subsets (the null set is skipped, matching the
// summation limits of validation equation 1). Identical order to the seed
// uint64_t iterator for inline sets.
class SubsetIterator {
 public:
  explicit SubsetIterator(const LicenseSet& set);

  bool Done() const { return done_; }
  LicenseSet subset() const {
    return LicenseSet::FromWords({subset_, num_words_});
  }

  void Next();

 private:
  uint64_t set_[kMaxLicenseWords];
  uint64_t subset_[kMaxLicenseWords];
  uint32_t num_words_;
  bool done_;
};

// Iterates every subset of `universe` — the empty set included — in
// ascending big-integer order (`x = (x − universe) & universe`): the
// enumeration the online equation scan and the reference model walk
// extensions with. Enumerates 2^|universe| subsets.
class AscendingSubsetIterator {
 public:
  explicit AscendingSubsetIterator(const LicenseSet& universe);

  bool Done() const { return done_; }
  LicenseSet subset() const {
    return LicenseSet::FromWords({subset_, num_words_});
  }
  // True on the final subset (== universe); lets callers that already hold
  // the universe skip materializing it again.
  bool AtLast() const { return at_last_; }

  void Next();

 private:
  uint64_t universe_[kMaxLicenseWords];
  uint64_t subset_[kMaxLicenseWords];
  uint32_t num_words_;
  bool at_last_;
  bool done_;
};

}  // namespace geolic

template <>
struct std::hash<geolic::LicenseSet> {
  size_t operator()(const geolic::LicenseSet& set) const noexcept {
    return set.Hash();
  }
};

#endif  // GEOLIC_UTIL_LICENSE_SET_H_
