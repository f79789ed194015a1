#include "util/license_set.h"

#include <algorithm>
#include <cstring>

namespace geolic {
namespace {

#ifndef GEOLIC_LICENSE_SET_NO_POOL

// Thread-local pool of heap word spans, bucketed by exact word count.
// Spilled sets are the per-equation currency of wide-catalog request
// traffic (every `s | subset` in the scan allocates one), so recycling
// spans makes the steady-state admission path allocation-free. Free lists
// are intrusive: a cached span's first 8 bytes hold the next pointer.
// Spans may migrate between threads (allocated on one, freed into
// another's pool) — they are plain new[] memory either way.
struct SpanPool {
  // Bounds per-thread retention to ~1 MiB at the widest bucket.
  static constexpr uint32_t kMaxPerBucket = 1024;

  void* head[kMaxLicenseWords + 1] = {};
  uint32_t count[kMaxLicenseWords + 1] = {};

  ~SpanPool();
};

// Guard against static-destruction-order races: a static LicenseSet that
// outlives the thread_local pool must fall back to plain delete[], not
// touch the destroyed pool.
thread_local SpanPool* tls_pool = nullptr;
thread_local bool tls_pool_dead = false;

SpanPool::~SpanPool() {
  for (uint32_t w = 2; w <= static_cast<uint32_t>(kMaxLicenseWords); ++w) {
    void* span = head[w];
    while (span != nullptr) {
      void* next;
      std::memcpy(&next, span, sizeof(next));
      delete[] static_cast<uint64_t*>(span);
      span = next;
    }
  }
  tls_pool = nullptr;
  tls_pool_dead = true;
}

SpanPool* GetPool() {
  if (tls_pool != nullptr) {
    return tls_pool;
  }
  if (tls_pool_dead) {
    return nullptr;
  }
  thread_local SpanPool pool;
  tls_pool = &pool;
  return tls_pool;
}

#endif  // GEOLIC_LICENSE_SET_NO_POOL

}  // namespace

uint64_t* LicenseSet::AllocWords(uint32_t num_words) {
#ifndef GEOLIC_LICENSE_SET_NO_POOL
  SpanPool* pool = GetPool();
  if (pool != nullptr && pool->head[num_words] != nullptr) {
    uint64_t* span = static_cast<uint64_t*>(pool->head[num_words]);
    std::memcpy(&pool->head[num_words], span, sizeof(void*));
    --pool->count[num_words];
    return span;
  }
#endif
  return new uint64_t[num_words];
}

void LicenseSet::FreeWords(uint64_t* span,
                           [[maybe_unused]] uint32_t num_words) {
#ifndef GEOLIC_LICENSE_SET_NO_POOL
  SpanPool* pool = GetPool();
  if (pool != nullptr && pool->count[num_words] < SpanPool::kMaxPerBucket) {
    std::memcpy(span, &pool->head[num_words], sizeof(void*));
    pool->head[num_words] = span;
    ++pool->count[num_words];
    return;
  }
#endif
  delete[] span;
}

LicenseSet LicenseSet::FromWords(std::span<const uint64_t> words) {
  size_t top = words.size();
  while (top > 1 && words[top - 1] == 0) {
    --top;
  }
  GEOLIC_DCHECK(top <= static_cast<size_t>(kMaxLicenseWords));
  LicenseSet set;
  if (top <= 1) {
    set.inline_word_ = words.empty() ? 0 : words[0];
    return set;
  }
  set.num_words_ = static_cast<uint32_t>(top);
  set.heap_ = AllocWords(set.num_words_);
  std::copy_n(words.data(), top, set.heap_);
  return set;
}

LicenseSet LicenseSet::SingletonSlow(int index) {
  const uint32_t w = static_cast<uint32_t>(index) / 64;
  LicenseSet set;
  set.num_words_ = w + 1;
  set.heap_ = AllocWords(w + 1);
  std::fill_n(set.heap_, w, uint64_t{0});
  set.heap_[w] = uint64_t{1} << (static_cast<uint32_t>(index) % 64);
  return set;
}

LicenseSet LicenseSet::Full(int n) {
  GEOLIC_DCHECK(n >= 0 && n <= kMaxLicensesLarge);
  if (n <= kMaxLicensesInline) {
    if (n == 0) {
      return LicenseSet();
    }
    if (n == kMaxLicensesInline) {
      return FromWord(~uint64_t{0});
    }
    return FromWord((uint64_t{1} << n) - 1);
  }
  const uint32_t full_words = static_cast<uint32_t>(n) / 64;
  const uint32_t spare_bits = static_cast<uint32_t>(n) % 64;
  const uint32_t total = full_words + (spare_bits != 0 ? 1 : 0);
  LicenseSet set;
  set.num_words_ = total;
  set.heap_ = AllocWords(total);
  for (uint32_t w = 0; w < full_words; ++w) {
    set.heap_[w] = ~uint64_t{0};
  }
  if (spare_bits != 0) {
    set.heap_[full_words] = (uint64_t{1} << spare_bits) - 1;
  }
  return set;
}

LicenseSet LicenseSet::FromIndexes(const std::vector<int>& indexes) {
  LicenseSet set;
  for (int index : indexes) {
    set.Add(index);
  }
  return set;
}

void LicenseSet::AddSlow(int index) {
  const uint32_t w = static_cast<uint32_t>(index) / 64;
  uint64_t* grown = AllocWords(w + 1);
  std::copy_n(words(), num_words_, grown);
  std::fill_n(grown + num_words_, w + 1 - num_words_, uint64_t{0});
  grown[w] |= uint64_t{1} << (static_cast<uint32_t>(index) % 64);
  DestroyHeap();
  num_words_ = w + 1;
  heap_ = grown;
}

void LicenseSet::CopyFrom(const LicenseSet& other) {
  num_words_ = other.num_words_;
  if (num_words_ == 1) {
    inline_word_ = other.inline_word_;
    return;
  }
  heap_ = AllocWords(num_words_);
  std::copy_n(other.heap_, num_words_, heap_);
}

void LicenseSet::Normalize() {
  if (num_words_ == 1) {
    return;
  }
  uint32_t top = num_words_;
  while (top > 1 && heap_[top - 1] == 0) {
    --top;
  }
  if (top == num_words_) {
    return;
  }
  if (top == 1) {
    const uint64_t word = heap_[0];
    FreeWords(heap_, num_words_);
    num_words_ = 1;
    inline_word_ = word;
    return;
  }
  uint64_t* shrunk = AllocWords(top);
  std::copy_n(heap_, top, shrunk);
  FreeWords(heap_, num_words_);
  num_words_ = top;
  heap_ = shrunk;
}

LicenseSet& LicenseSet::operator|=(const LicenseSet& other) {
  if (other.num_words_ <= num_words_) {
    uint64_t* a = mutable_words();
    const uint64_t* b = other.words();
    for (uint32_t w = 0; w < other.num_words_; ++w) {
      a[w] |= b[w];
    }
    return *this;
  }
  uint64_t* grown = AllocWords(other.num_words_);
  const uint64_t* a = words();
  const uint64_t* b = other.heap_;
  for (uint32_t w = 0; w < other.num_words_; ++w) {
    grown[w] = (w < num_words_ ? a[w] : 0) | b[w];
  }
  DestroyHeap();
  num_words_ = other.num_words_;
  heap_ = grown;
  return *this;
}

LicenseSet& LicenseSet::operator&=(const LicenseSet& other) {
  if (num_words_ == 1) {
    inline_word_ &= other.words()[0];
    return *this;
  }
  uint64_t* a = heap_;
  const uint64_t* b = other.words();
  for (uint32_t w = 0; w < num_words_; ++w) {
    a[w] &= w < other.num_words_ ? b[w] : 0;
  }
  Normalize();
  return *this;
}

LicenseSet& LicenseSet::operator-=(const LicenseSet& other) {
  uint64_t* a = mutable_words();
  const uint64_t* b = other.words();
  const uint32_t common =
      num_words_ < other.num_words_ ? num_words_ : other.num_words_;
  for (uint32_t w = 0; w < common; ++w) {
    a[w] &= ~b[w];
  }
  Normalize();
  return *this;
}

std::vector<int> LicenseSet::ToIndexes() const {
  std::vector<int> indexes;
  indexes.reserve(static_cast<size_t>(Size()));
  for (int index : Indexes()) {
    indexes.push_back(index);
  }
  return indexes;
}

std::string LicenseSet::ToString() const {
  std::string out = "{";
  bool first = true;
  for (int index : Indexes()) {
    if (!first) {
      out += ", ";
    }
    first = false;
    out += "L";
    out += std::to_string(index + 1);
  }
  out += "}";
  return out;
}

std::string LicenseSet::ToHex() const {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out = "0x";
  bool significant = false;
  for (uint32_t w = num_words_; w-- > 0;) {
    const uint64_t word = words()[w];
    for (int nibble = 15; nibble >= 0; --nibble) {
      const unsigned digit =
          static_cast<unsigned>((word >> (nibble * 4)) & 0xf);
      if (!significant && digit == 0) {
        continue;
      }
      significant = true;
      out += kDigits[digit];
    }
  }
  if (!significant) {
    out += '0';
  }
  return out;
}

bool LicenseSet::FromHex(std::string_view text, LicenseSet* out) {
  if (text.size() >= 2 && text[0] == '0' &&
      (text[1] == 'x' || text[1] == 'X')) {
    text.remove_prefix(2);
  }
  if (text.empty() || text.size() > kMaxLicenseWords * 16) {
    return false;
  }
  uint64_t words[kMaxLicenseWords] = {};
  // Nibble i from the right lands in word i/16 at shift (i%16)*4.
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[text.size() - 1 - i];
    unsigned digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<unsigned>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<unsigned>(c - 'a') + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = static_cast<unsigned>(c - 'A') + 10;
    } else {
      return false;
    }
    words[i / 16] |= uint64_t{digit} << ((i % 16) * 4);
  }
  *out = FromWords(words);
  return true;
}

namespace {

// dst = (dst - 1) mod 2^(64*num_words).
void BigDecrement(uint64_t* dst, uint32_t num_words) {
  for (uint32_t w = 0; w < num_words; ++w) {
    if (dst[w]-- != 0) {
      return;  // No borrow past a non-zero word.
    }
  }
}

// dst = (dst - sub) mod 2^(64*num_words).
void BigSubtract(uint64_t* dst, const uint64_t* sub, uint32_t num_words) {
  uint64_t borrow = 0;
  for (uint32_t w = 0; w < num_words; ++w) {
    const uint64_t before = dst[w];
    const uint64_t after = before - sub[w] - borrow;
    borrow = (before < sub[w] || (borrow != 0 && before == sub[w])) ? 1 : 0;
    dst[w] = after;
  }
}

bool AllZero(const uint64_t* words, uint32_t num_words) {
  for (uint32_t w = 0; w < num_words; ++w) {
    if (words[w] != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

SubsetIterator::SubsetIterator(const LicenseSet& set)
    : num_words_(static_cast<uint32_t>(set.WordCount())),
      done_(set.Empty()) {
  GEOLIC_DCHECK(num_words_ <= static_cast<uint32_t>(kMaxLicenseWords));
  for (uint32_t w = 0; w < num_words_; ++w) {
    set_[w] = set.Word(static_cast<int>(w));
    subset_[w] = set_[w];
  }
}

void SubsetIterator::Next() {
  GEOLIC_DCHECK(!done_);
  if (AllZero(subset_, num_words_)) {
    done_ = true;
    return;
  }
  BigDecrement(subset_, num_words_);
  for (uint32_t w = 0; w < num_words_; ++w) {
    subset_[w] &= set_[w];
  }
  if (AllZero(subset_, num_words_)) {
    done_ = true;
  }
}

AscendingSubsetIterator::AscendingSubsetIterator(const LicenseSet& universe)
    : num_words_(static_cast<uint32_t>(universe.WordCount())),
      at_last_(universe.Empty()),
      done_(false) {
  GEOLIC_DCHECK(num_words_ <= static_cast<uint32_t>(kMaxLicenseWords));
  for (uint32_t w = 0; w < num_words_; ++w) {
    universe_[w] = universe.Word(static_cast<int>(w));
    subset_[w] = 0;
  }
}

void AscendingSubsetIterator::Next() {
  GEOLIC_DCHECK(!done_);
  if (at_last_) {
    done_ = true;
    return;
  }
  // next = (x − universe) & universe, the ascending-superset step.
  BigSubtract(subset_, universe_, num_words_);
  bool equals_universe = true;
  for (uint32_t w = 0; w < num_words_; ++w) {
    subset_[w] &= universe_[w];
    equals_universe = equals_universe && subset_[w] == universe_[w];
  }
  at_last_ = equals_universe;
}

}  // namespace geolic
