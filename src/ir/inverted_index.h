// Inverted index with document statistics: the retrieval core of the NS
// component and of the Lucene-like baseline.
//
// The index is a single-writer / multi-reader structure built for
// epoch-snapshot isolation: AddDocument (one writer at a time) appends into
// chunked, stable-address storage, and readers score against an immutable
// IndexSnapshot — a set of extents (doc count, term count, total length)
// captured by the writer after an append completes. Because doc ids are
// assigned sequentially and postings are appended in doc-id order, bounding
// every read by "doc < snapshot.num_docs" is exactly a point-in-time view:
// a reader can never observe a half-appended document.

#ifndef NEWSLINK_IR_INVERTED_INDEX_H_
#define NEWSLINK_IR_INVERTED_INDEX_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "ir/append_only.h"
#include "ir/term_dictionary.h"

namespace newslink {
namespace ir {

using DocId = uint32_t;
inline constexpr DocId kInvalidDoc = std::numeric_limits<DocId>::max();

struct Posting {
  DocId doc;
  uint32_t tf;
};

/// Sparse term-frequency vector of a document or query.
using TermCounts = std::vector<std::pair<TermId, uint32_t>>;

/// Chunked posting storage of one term (small first chunk: most terms are
/// rare; capacity covers the full DocId space).
using PostingChunks = AppendOnlyStore<Posting, 4, 28>;

/// Postings per block-max block (Ding & Suel): every posting list — live
/// chunked storage and the compressed snapshot form alike — is divided
/// into runs of this many postings, and each completed run publishes its
/// maximum term frequency so retrieval can bound a block's best possible
/// contribution without decoding it.
inline constexpr size_t kPostingBlockSize = 64;

/// Per-completed-block max-tf storage (one uint32_t per kPostingBlockSize
/// postings; capacity covers the full DocId space worth of blocks).
using BlockMaxStore = AppendOnlyStore<uint32_t, 2, 25>;

/// \brief Block-max metadata of one term, as seen by a reader.
///
/// `num_blocks` counts completed blocks whose per-block max tf is readable
/// in `block_max` (postings beyond `num_blocks * kPostingBlockSize` form an
/// open tail block with no published bound yet — fall back to `max_tf`).
/// `max_tf` is the maximum term frequency over every posting appended so
/// far; because appends only grow it, it is always a valid upper bound for
/// any snapshot-bounded prefix of the list.
struct TermBlockMax {
  const BlockMaxStore* block_max = nullptr;
  size_t num_blocks = 0;
  uint32_t max_tf = 0;
};

/// \brief Immutable extents of an index at one publication point.
///
/// Capturing is writer-side (or quiesced); consuming is lock-free from any
/// thread. All scorer maths (idf, avgdl, norms, MaxScore bounds) must key
/// off these values, never off live index accessors, so concurrent
/// ingestion cannot shift statistics mid-query.
struct IndexSnapshot {
  size_t num_docs = 0;
  size_t num_terms = 0;
  uint64_t total_length = 0;

  double avg_doc_length() const {
    return num_docs == 0 ? 0.0
                         : static_cast<double>(total_length) /
                               static_cast<double>(num_docs);
  }
};

/// \brief Read-only, random-access view of (a bounded prefix of) one
/// term's postings. Iterators stay valid while the index is alive; the
/// underlying elements are immutable once published.
class PostingView {
 public:
  class Iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = Posting;
    using difference_type = std::ptrdiff_t;
    using pointer = const Posting*;
    using reference = const Posting&;

    Iterator() = default;
    Iterator(const PostingChunks* chunks, size_t i) : chunks_(chunks), i_(i) {}

    reference operator*() const { return chunks_->At(i_); }
    pointer operator->() const { return &chunks_->At(i_); }
    reference operator[](difference_type n) const { return chunks_->At(i_ + n); }

    Iterator& operator++() { ++i_; return *this; }
    Iterator operator++(int) { Iterator t = *this; ++i_; return t; }
    Iterator& operator--() { --i_; return *this; }
    Iterator operator--(int) { Iterator t = *this; --i_; return t; }
    Iterator& operator+=(difference_type n) { i_ += n; return *this; }
    Iterator& operator-=(difference_type n) { i_ -= n; return *this; }
    friend Iterator operator+(Iterator it, difference_type n) { it += n; return it; }
    friend Iterator operator+(difference_type n, Iterator it) { it += n; return it; }
    friend Iterator operator-(Iterator it, difference_type n) { it -= n; return it; }
    friend difference_type operator-(const Iterator& a, const Iterator& b) {
      return static_cast<difference_type>(a.i_) - static_cast<difference_type>(b.i_);
    }
    friend bool operator==(const Iterator& a, const Iterator& b) { return a.i_ == b.i_; }
    friend bool operator!=(const Iterator& a, const Iterator& b) { return a.i_ != b.i_; }
    friend bool operator<(const Iterator& a, const Iterator& b) { return a.i_ < b.i_; }
    friend bool operator>(const Iterator& a, const Iterator& b) { return a.i_ > b.i_; }
    friend bool operator<=(const Iterator& a, const Iterator& b) { return a.i_ <= b.i_; }
    friend bool operator>=(const Iterator& a, const Iterator& b) { return a.i_ >= b.i_; }

   private:
    const PostingChunks* chunks_ = nullptr;
    size_t i_ = 0;
  };

  PostingView() = default;
  PostingView(const PostingChunks* chunks, size_t count)
      : chunks_(chunks), count_(count) {}

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  const Posting& operator[](size_t i) const { return chunks_->At(i); }
  Iterator begin() const { return Iterator(chunks_, 0); }
  Iterator end() const { return Iterator(chunks_, count_); }

  /// Postings [i, end of i's storage chunk), clamped to size(); i < size().
  std::span<const Posting> Run(size_t i) const {
    return chunks_->Run(i, count_);
  }

 private:
  const PostingChunks* chunks_ = nullptr;
  size_t count_ = 0;
};

/// \brief Forward-only cursor over a PostingView.
///
/// Walks the contiguous run of the current storage chunk with a plain
/// pointer and looks the chunk up again only when the run ends, so
/// sequential and galloping traversal cost no per-posting chunk
/// arithmetic. doc() is kInvalidDoc once the view is exhausted, which
/// sorts after every real document id.
class PostingCursor {
 public:
  PostingCursor() = default;
  explicit PostingCursor(const PostingView& view) : view_(view) { Load(0); }

  const PostingView& view() const { return view_; }
  /// Index of the current posting in the view (size() when exhausted).
  size_t pos() const { return pos_; }
  DocId doc() const { return doc_; }
  /// The current posting; only valid while doc() != kInvalidDoc.
  const Posting& posting() const { return *p_; }

  void Next() {
    ++p_;
    ++pos_;
    if (p_ != end_) {
      doc_ = p_->doc;
    } else {
      Load(pos_);
    }
  }

  /// Advance to the first posting at or after the current one whose doc
  /// is >= target (exhausting the cursor if there is none): whole runs
  /// whose last doc is below target are stepped over, then an exponential
  /// search from the current posting brackets the answer for a binary
  /// search. Never moves backwards.
  void SeekAtLeast(DocId target) {
    while (doc_ < target) {
      const Posting* last = end_ - 1;
      if (last->doc < target) {
        Load(pos_ + static_cast<size_t>(end_ - p_));
        continue;
      }
      // p_->doc < target <= last->doc: gallop from p_, then bisect.
      const Posting* lo = p_;
      size_t step = 1;
      while (step < static_cast<size_t>(last - lo) && lo[step].doc < target) {
        lo += step;
        step *= 2;
      }
      const Posting* hi =
          step < static_cast<size_t>(last - lo) ? lo + step : last;
      const Posting* it = std::lower_bound(
          lo + 1, hi + 1, target,
          [](const Posting& p, DocId d) { return p.doc < d; });
      pos_ += static_cast<size_t>(it - p_);
      p_ = it;
      doc_ = it->doc;
      return;
    }
  }

 private:
  void Load(size_t i) {
    pos_ = i;
    if (i >= view_.size()) {
      p_ = end_ = nullptr;
      doc_ = kInvalidDoc;
      return;
    }
    const std::span<const Posting> run = view_.Run(i);
    p_ = run.data();
    end_ = p_ + run.size();
    doc_ = p_->doc;
  }

  PostingView view_;
  const Posting* p_ = nullptr;
  const Posting* end_ = nullptr;
  size_t pos_ = 0;
  DocId doc_ = kInvalidDoc;
};

/// \brief Term-at-a-time friendly inverted index (single writer, many
/// concurrent snapshot readers).
///
/// Documents are appended in id order; postings lists are therefore sorted
/// by doc id by construction.
class InvertedIndex {
 public:
  InvertedIndex() = default;

  /// Setup-time transfer only — not safe concurrently with readers.
  InvertedIndex(InvertedIndex&& other) noexcept
      : terms_(std::move(other.terms_)),
        doc_lengths_(std::move(other.doc_lengths_)),
        total_length_(other.total_length_.exchange(
            0, std::memory_order_relaxed)),
        min_doc_length_(other.min_doc_length_.exchange(
            std::numeric_limits<uint32_t>::max(), std::memory_order_relaxed)),
        docs_added_(other.docs_added_),
        postings_added_(other.postings_added_) {}
  InvertedIndex& operator=(InvertedIndex&& other) noexcept {
    if (this != &other) {
      terms_ = std::move(other.terms_);
      doc_lengths_ = std::move(other.doc_lengths_);
      total_length_.store(
          other.total_length_.exchange(0, std::memory_order_relaxed),
          std::memory_order_relaxed);
      min_doc_length_.store(
          other.min_doc_length_.exchange(
              std::numeric_limits<uint32_t>::max(),
              std::memory_order_relaxed),
          std::memory_order_relaxed);
      docs_added_ = other.docs_added_;
      postings_added_ = other.postings_added_;
    }
    return *this;
  }

  /// Register cumulative ingestion series (`<prefix>_index_docs_total`,
  /// `<prefix>_index_postings_total`) in `registry`. Setup-time only (same
  /// single-writer discipline as AddDocument); the registry must outlive
  /// the index.
  void EnableMetrics(metrics::Registry* registry, std::string_view prefix) {
    docs_added_ = registry->GetCounter(
        std::string(prefix) + "_index_docs_total", "documents appended");
    postings_added_ = registry->GetCounter(
        std::string(prefix) + "_index_postings_total", "postings appended");
  }

  /// Add the next document; returns its id (sequential from 0).
  /// Writer-only: at most one thread may append at a time, but appends may
  /// run concurrently with snapshot-bounded readers.
  DocId AddDocument(const TermCounts& counts);

  /// Current extents. Live accessors are exact on the writer thread or on
  /// a quiescent index; concurrent readers should use an IndexSnapshot.
  size_t num_docs() const { return doc_lengths_.size(); }
  size_t num_terms() const { return terms_.size(); }

  /// Sum of term frequencies of the document (doc must be below a
  /// published num_docs).
  uint32_t DocLength(DocId doc) const { return doc_lengths_.At(doc); }
  double avg_doc_length() const;

  /// Smallest document length added so far (0 for an empty index). The
  /// live value only ever decreases, so it lower-bounds the minimum over
  /// any published snapshot's prefix — safe for score upper bounds under
  /// concurrent append.
  uint32_t MinDocLength() const {
    const uint32_t v = min_doc_length_.load(std::memory_order_relaxed);
    return v == std::numeric_limits<uint32_t>::max() ? 0 : v;
  }

  /// Number of documents containing the term (0 for out-of-range terms).
  uint32_t DocFreq(TermId term) const;
  uint32_t DocFreq(TermId term, const IndexSnapshot& snapshot) const {
    return static_cast<uint32_t>(Postings(term, snapshot).size());
  }

  /// Full current extent of a term's postings.
  PostingView Postings(TermId term) const;

  /// Postings bounded to the snapshot: only docs < snapshot.num_docs.
  PostingView Postings(TermId term, const IndexSnapshot& snapshot) const;

  /// Block-max metadata of a term (zeroed for unknown/empty terms). The
  /// bounds are upper bounds for ANY prefix of the list, so a reader
  /// working against a snapshot may use them directly: a completed block
  /// that extends past the snapshot still bounds the snapshot-visible part
  /// of that block from above (max over a superset). A reader that races
  /// an append may observe fewer completed blocks than postings imply;
  /// the open tail is then covered by `max_tf`.
  TermBlockMax BlockMax(TermId term) const;

  // --- Snapshot-restore API (used by index_io) ------------------------
  //
  // Restoring bypasses AddDocument so a loaded index is bit-identical in
  // layout to a freshly built one without replaying documents. All three
  // calls are setup-time only (no concurrent readers); RestoreDocLengths
  // must run first so posting validation can bound doc ids.

  /// Install all document lengths at once. The index must be empty.
  Status RestoreDocLengths(std::span<const uint32_t> lengths);

  /// Grow the term-slot directory to `n` entries (empty postings). Needed
  /// because trailing terms with no postings still count toward num_terms.
  void EnsureNumTerms(size_t n);

  /// Install one term's full posting list. Doc ids must be strictly
  /// increasing, below num_docs(), with positive term frequencies; the
  /// term must not have postings yet. Violations return InvalidArgument —
  /// this is the line of defense that turns a corrupt snapshot section
  /// into a clean load failure instead of a poisoned index.
  Status RestoreTermPostings(TermId term, std::span<const Posting> postings);

  /// Capture the current extents (writer-side or quiesced index).
  IndexSnapshot Capture() const {
    IndexSnapshot snap;
    snap.num_docs = doc_lengths_.size();
    snap.num_terms = terms_.size();
    snap.total_length = total_length_.load(std::memory_order_acquire);
    return snap;
  }

 private:
  /// One term's postings plus its block-max sidecar. Appends keep the
  /// sidecar in lockstep with the postings: the moment a block fills, its
  /// max tf is published into `block_max` and is immutable from then on.
  struct TermPostings {
    PostingChunks postings;
    BlockMaxStore block_max;
    /// Max tf over all postings so far (monotone; relaxed is fine because
    /// it only ever under-approximates transiently for a racing reader,
    /// and snapshot publication orders it for quiesced readers).
    std::atomic<uint32_t> max_tf{0};
    /// Writer-only scratch: max tf of the still-open tail block.
    uint32_t tail_max = 0;

    /// Writer-only. Postings must arrive in strictly increasing doc order
    /// (callers validate); publishes block metadata as blocks complete.
    void Append(const Posting& p) {
      if (p.tf > max_tf.load(std::memory_order_relaxed)) {
        max_tf.store(p.tf, std::memory_order_relaxed);
      }
      if (p.tf > tail_max) tail_max = p.tf;
      postings.Append(p);
      if (postings.size() % kPostingBlockSize == 0) {
        block_max.Append(tail_max);
        tail_max = 0;
      }
    }
  };

  /// One slot per term id; the posting storage is allocated lazily on the
  /// term's first posting (sparse id spaces — BON uses KG node ids — would
  /// otherwise pay the full chunk directory per empty slot).
  struct TermEntry {
    std::atomic<TermPostings*> list{nullptr};

    ~TermEntry() { delete list.load(std::memory_order_relaxed); }
    TermEntry() = default;
    TermEntry(const TermEntry&) = delete;
    TermEntry& operator=(const TermEntry&) = delete;
  };

  AppendOnlyStore<TermEntry> terms_;
  AppendOnlyStore<uint32_t> doc_lengths_;
  std::atomic<uint64_t> total_length_{0};
  std::atomic<uint32_t> min_doc_length_{
      std::numeric_limits<uint32_t>::max()};
  metrics::Counter* docs_added_ = nullptr;  // null until EnableMetrics
  metrics::Counter* postings_added_ = nullptr;
};

}  // namespace ir
}  // namespace newslink

#endif  // NEWSLINK_IR_INVERTED_INDEX_H_
