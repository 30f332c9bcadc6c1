/**
 * @file
 * Deterministic JSON emission and durable file publication.
 *
 * Every machine-readable artifact this framework writes — campaign run
 * manifests, the BENCH_*.json trajectory files — goes through this
 * module, so escaping, number formatting, and crash/concurrency safety
 * are implemented once:
 *
 *  - jsonEscape() renders any byte string as a valid JSON string body
 *    (quotes, backslashes, and control characters escaped; everything
 *    else passed through, so UTF-8 survives).
 *  - jsonNumber() renders a double as the *shortest* decimal that
 *    round-trips to the same bits — deterministic output without
 *    17-digit noise.  Non-finite values (which JSON cannot represent)
 *    render as null.
 *  - JsonWriter is a small streaming writer for nested documents with
 *    stable two-space indentation; JsonLineBuilder renders one flat
 *    object on a single line for the line-oriented trajectory files.
 *  - atomicWriteFile() publishes via temp-file + rename, optionally
 *    fsyncing file and directory, so readers (and crashes) see either
 *    the old document or the new one, never a torn prefix.
 *  - mergeJsonLines() is the merge-by-owner line writer behind the
 *    BENCH_*.json files (formerly an ad-hoc helper in bench/common.hh;
 *    it now escapes nothing itself — rows are pre-rendered — but
 *    publishes atomically, so two concurrent writers cannot corrupt
 *    the file).
 */

#ifndef FIDELITY_SIM_JSON_HH
#define FIDELITY_SIM_JSON_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fidelity
{

/** Escape a byte string for inclusion inside JSON double quotes. */
std::string jsonEscape(std::string_view s);

/**
 * Shortest decimal rendering of `v` that strtod's back to the same
 * bits; "null" for NaN/Inf (JSON has no non-finite numbers).
 */
std::string jsonNumber(double v);

/**
 * Streaming writer for nested JSON documents.  The caller drives the
 * structure (beginObject/key/value/endObject); the writer owns commas,
 * quoting, escaping, and indentation, and panics on malformed
 * sequences (value without key inside an object, unbalanced ends).
 * Output is deterministic: same call sequence, same bytes.
 */
class JsonWriter
{
  public:
    JsonWriter() = default;

    void beginObject();
    void endObject();
    void beginArray();
    void endArray();

    /** Emit the key of the next value (objects only). */
    void key(std::string_view k);

    void value(std::string_view s);
    void value(const char *s) { value(std::string_view(s)); }
    void value(const std::string &s) { value(std::string_view(s)); }
    void value(double v);
    void value(std::uint64_t v);
    void value(std::int64_t v);
    void value(int v) { value(static_cast<std::int64_t>(v)); }
    void value(bool v);

    /** Convenience: key() + value(). */
    template <typename T>
    void
    field(std::string_view k, const T &v)
    {
        key(k);
        value(v);
    }

    /** The document so far; call after the last end*(). */
    const std::string &str() const;

  private:
    void separate();
    void indent();

    struct Frame
    {
        bool array = false;
        bool first = true;
    };

    std::string out_;
    std::vector<Frame> stack_;
    bool keyPending_ = false;
};

/**
 * One flat JSON object rendered on a single line — the row format of
 * the line-oriented BENCH_*.json files.  String values are escaped.
 */
class JsonLineBuilder
{
  public:
    JsonLineBuilder &field(std::string_view k, std::string_view v);
    JsonLineBuilder &field(std::string_view k, const char *v);
    JsonLineBuilder &field(std::string_view k, const std::string &v);
    JsonLineBuilder &field(std::string_view k, double v);
    JsonLineBuilder &field(std::string_view k, std::uint64_t v);
    JsonLineBuilder &field(std::string_view k, std::int64_t v);
    JsonLineBuilder &field(std::string_view k, int v);
    JsonLineBuilder &field(std::string_view k, bool v);

    /** Embed `rendered` verbatim as the value of `k` — for values
     *  that are already JSON (a nested manifest document, a
     *  pre-rendered number).  The caller vouches for validity. */
    JsonLineBuilder &rawField(std::string_view k, std::string_view rendered);

    /** The rendered `{...}` line (no trailing newline). */
    std::string str() const;

  private:
    std::string body_;
};

/**
 * Replace `path` with `content` atomically: the bytes go to
 * `path + ".tmp"`, which is renamed over `path`.  With `sync_to_disk`
 * the temp file is fsync'd before the rename and the parent directory
 * after it, so not even a power cut can publish a torn or empty file.
 * An existing `path` that is not a regular file (a device, a FIFO) is
 * written directly instead, with no temp file, rename or fsync, so the
 * node survives.  Fatals on any I/O failure.
 */
void atomicWriteFile(const std::string &path, std::string_view content,
                     bool sync_to_disk = false);

/**
 * Merge-by-owner line writer for the BENCH_*.json trajectory files
 * (one JSON object per line inside a plain array).  Lines from other
 * benches already in `path` are preserved; previous lines of `bench`
 * are replaced, so each binary owns its rows and re-runs stay
 * idempotent.  `rows` are fully-rendered object lines (use
 * JsonLineBuilder) that must embed `"bench": "<bench>"`.  The file is
 * republished atomically — a bench racing another bench (or CI
 * artifact collection) can lose the race but cannot corrupt the file.
 */
void mergeJsonLines(const std::string &path, const std::string &bench,
                    const std::vector<std::string> &rows);

/**
 * Extract the value of top-level key `k` from a JSON object document
 * (the text of the object/array/scalar, braces included).  A text-level
 * helper for tests and tools that compare manifest sections without a
 * full parser; it respects strings and nesting.  Returns "" when the
 * key is absent.
 */
std::string jsonSection(const std::string &doc, const std::string &key);

} // namespace fidelity

#endif // FIDELITY_SIM_JSON_HH
