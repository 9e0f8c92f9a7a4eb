#ifndef XYMON_COMMON_SHARED_STRING_H_
#define XYMON_COMMON_SHARED_STRING_H_

#include <atomic>
#include <cstddef>
#include <cstring>
#include <functional>
#include <new>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace xymon {

/// An immutable, reference-counted string: copying a handle shares the bytes
/// (one atomic increment, no allocation). The notification path carries its
/// names and payloads in these (DESIGN.md §15), so the data of one document
/// is built once and every action and Reporter buffer behind it holds the
/// same buffer. The count is atomic: handles are copied on shard threads
/// and released on the gather thread.
///
/// The empty string holds no buffer. Comparison is by content; SharesWith
/// tells whether two handles hold the same buffer.
class SharedString {
 public:
  SharedString() = default;
  SharedString(std::string_view s) {  // NOLINT: implicit by design
    if (s.empty()) return;
    Allocate(s.size());
    std::memcpy(rep_->data(), s.data(), s.size());
  }
  SharedString(const std::string& s)  // NOLINT
      : SharedString(std::string_view(s)) {}
  SharedString(const char* s)  // NOLINT
      : SharedString(std::string_view(s)) {}

  /// `a`, `sep`, `b` concatenated into one buffer, with no temporary.
  static SharedString Join(std::string_view a, char sep, std::string_view b) {
    SharedString joined;
    joined.Allocate(a.size() + 1 + b.size());
    char* out = joined.rep_->data();
    std::memcpy(out, a.data(), a.size());
    out[a.size()] = sep;
    std::memcpy(out + a.size() + 1, b.data(), b.size());
    return joined;
  }

  SharedString(const SharedString& other) noexcept : rep_(other.rep_) {
    if (rep_ != nullptr) rep_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  SharedString(SharedString&& other) noexcept
      : rep_(std::exchange(other.rep_, nullptr)) {}
  SharedString& operator=(SharedString other) noexcept {
    std::swap(rep_, other.rep_);
    return *this;
  }
  ~SharedString() {
    if (rep_ != nullptr &&
        rep_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      rep_->~Rep();
      ::operator delete(rep_);
    }
  }

  std::string_view view() const {
    return rep_ == nullptr ? std::string_view()
                           : std::string_view(rep_->data(), rep_->size);
  }
  operator std::string_view() const { return view(); }  // NOLINT
  std::string str() const { return std::string(view()); }
  size_t size() const { return rep_ == nullptr ? 0 : rep_->size; }
  bool empty() const { return rep_ == nullptr; }

  /// True when both handles hold the same buffer, not merely equal bytes.
  bool SharesWith(const SharedString& other) const {
    return rep_ != nullptr && rep_ == other.rep_;
  }

  friend bool operator==(const SharedString& a, std::string_view b) {
    return a.view() == b;
  }
  friend std::ostream& operator<<(std::ostream& os, const SharedString& s) {
    return os << s.view();
  }

 private:
  struct Rep {
    std::atomic<size_t> refs;
    size_t size;
    char* data() { return reinterpret_cast<char*>(this + 1); }
  };

  void Allocate(size_t size) {
    void* mem = ::operator new(sizeof(Rep) + size);
    rep_ = new (mem) Rep{{1}, size};
  }

  Rep* rep_ = nullptr;
};

/// Hash for unordered containers keyed by std::string that are probed with
/// a string_view or SharedString without building a std::string (use with
/// std::equal_to<>).
struct StringViewHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

}  // namespace xymon

#endif  // XYMON_COMMON_SHARED_STRING_H_
