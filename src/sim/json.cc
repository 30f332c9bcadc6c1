#include "sim/json.hh"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "sim/logging.hh"

#if !defined(_WIN32)
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace fidelity
{

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\b':
            out += "\\b";
            break;
        case '\f':
            out += "\\f";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    // Shortest decimal that round-trips: try increasing precision
    // until strtod returns the original bits.  Deterministic and free
    // of 17-digit noise for the common short values.
    char buf[40];
    for (int prec = 1; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

// ----- JsonWriter ---------------------------------------------------

void
JsonWriter::separate()
{
    if (stack_.empty())
        return;
    Frame &top = stack_.back();
    if (top.array) {
        if (!top.first)
            out_ += ",";
        out_ += "\n";
        indent();
        top.first = false;
    } else {
        panic_if(!keyPending_,
                 "JsonWriter: value inside an object requires key()");
        keyPending_ = false;
    }
}

void
JsonWriter::indent()
{
    out_.append(2 * stack_.size(), ' ');
}

void
JsonWriter::key(std::string_view k)
{
    panic_if(stack_.empty() || stack_.back().array,
             "JsonWriter: key() outside an object");
    panic_if(keyPending_, "JsonWriter: key() after key()");
    Frame &top = stack_.back();
    if (!top.first)
        out_ += ",";
    out_ += "\n";
    indent();
    top.first = false;
    out_ += "\"";
    out_ += jsonEscape(k);
    out_ += "\": ";
    keyPending_ = true;
}

void
JsonWriter::beginObject()
{
    separate();
    out_ += "{";
    stack_.push_back({false, true});
}

void
JsonWriter::endObject()
{
    panic_if(stack_.empty() || stack_.back().array || keyPending_,
             "JsonWriter: unbalanced endObject()");
    bool empty = stack_.back().first;
    stack_.pop_back();
    if (!empty) {
        out_ += "\n";
        indent();
    }
    out_ += "}";
}

void
JsonWriter::beginArray()
{
    separate();
    out_ += "[";
    stack_.push_back({true, true});
}

void
JsonWriter::endArray()
{
    panic_if(stack_.empty() || !stack_.back().array,
             "JsonWriter: unbalanced endArray()");
    bool empty = stack_.back().first;
    stack_.pop_back();
    if (!empty) {
        out_ += "\n";
        indent();
    }
    out_ += "]";
}

void
JsonWriter::value(std::string_view s)
{
    separate();
    out_ += "\"";
    out_ += jsonEscape(s);
    out_ += "\"";
}

void
JsonWriter::value(double v)
{
    separate();
    out_ += jsonNumber(v);
}

void
JsonWriter::value(std::uint64_t v)
{
    separate();
    out_ += std::to_string(v);
}

void
JsonWriter::value(std::int64_t v)
{
    separate();
    out_ += std::to_string(v);
}

void
JsonWriter::value(bool v)
{
    separate();
    out_ += v ? "true" : "false";
}

const std::string &
JsonWriter::str() const
{
    panic_if(!stack_.empty(),
             "JsonWriter: str() before the document is closed");
    return out_;
}

// ----- JsonLineBuilder ----------------------------------------------

JsonLineBuilder &
JsonLineBuilder::rawField(std::string_view k, std::string_view rendered)
{
    if (!body_.empty())
        body_ += ", ";
    body_ += "\"";
    body_ += jsonEscape(k);
    body_ += "\": ";
    body_ += rendered;
    return *this;
}

JsonLineBuilder &
JsonLineBuilder::field(std::string_view k, std::string_view v)
{
    return rawField(k, "\"" + jsonEscape(v) + "\"");
}

JsonLineBuilder &
JsonLineBuilder::field(std::string_view k, const char *v)
{
    return field(k, std::string_view(v));
}

JsonLineBuilder &
JsonLineBuilder::field(std::string_view k, const std::string &v)
{
    return field(k, std::string_view(v));
}

JsonLineBuilder &
JsonLineBuilder::field(std::string_view k, double v)
{
    return rawField(k, jsonNumber(v));
}

JsonLineBuilder &
JsonLineBuilder::field(std::string_view k, std::uint64_t v)
{
    return rawField(k, std::to_string(v));
}

JsonLineBuilder &
JsonLineBuilder::field(std::string_view k, std::int64_t v)
{
    return rawField(k, std::to_string(v));
}

JsonLineBuilder &
JsonLineBuilder::field(std::string_view k, int v)
{
    return rawField(k, std::to_string(v));
}

JsonLineBuilder &
JsonLineBuilder::field(std::string_view k, bool v)
{
    return rawField(k, v ? "true" : "false");
}

std::string
JsonLineBuilder::str() const
{
    return "  {" + body_ + "}";
}

// ----- Durable publication ------------------------------------------

namespace
{

#if !defined(_WIN32)
/** fsync an fd; filesystems without sync semantics report EINVAL /
 *  ENOTSUP for directories, which is not a durability failure. */
void
syncFd(int fd, const std::string &what)
{
    if (::fsync(fd) != 0 && errno != EINVAL && errno != ENOTSUP &&
        errno != EROFS)
        fatal("cannot fsync ", what, ": ", std::strerror(errno));
}
#endif

/** Write `content` to `name` from the start; fsync it when `sync`. */
void
writeWhole(const std::string &name, std::string_view content, bool sync)
{
    std::FILE *f = std::fopen(name.c_str(), "wb");
    fatal_if(!f, "cannot open ", name, ": ", std::strerror(errno));
    const std::size_t wrote =
        content.empty() ? 0
                        : std::fwrite(content.data(), 1, content.size(), f);
    if (wrote != content.size() || std::fflush(f) != 0) {
        std::fclose(f);
        fatal("short write to ", name);
    }
#if !defined(_WIN32)
    if (sync)
        syncFd(fileno(f), name);
#else
    (void)sync;
#endif
    fatal_if(std::fclose(f) != 0, "cannot close ", name);
}

} // namespace

void
atomicWriteFile(const std::string &path, std::string_view content,
                bool sync_to_disk)
{
    fatal_if(path.empty(), "atomicWriteFile requires a path");
#if !defined(_WIN32)
    // A device or FIFO is written in place: renaming a temp file over
    // it would replace the node with a regular file.
    struct stat st;
    if (::stat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode)) {
        writeWhole(path, content, false);
        return;
    }
#endif
    const std::string tmp = path + ".tmp";
    writeWhole(tmp, content, sync_to_disk);

    fatal_if(std::rename(tmp.c_str(), path.c_str()) != 0, "cannot rename ",
             tmp, " over ", path, ": ", std::strerror(errno));

#if !defined(_WIN32)
    if (sync_to_disk) {
        // The rename itself must reach the disk, or a crash can leave
        // the directory pointing at neither version.
        std::size_t slash = path.find_last_of('/');
        const std::string dir =
            slash == std::string::npos ? "." : path.substr(0, slash + 1);
        int dfd = ::open(dir.c_str(), O_RDONLY);
        fatal_if(dfd < 0, "cannot open directory ", dir,
                 " to sync it: ", std::strerror(errno));
        syncFd(dfd, dir);
        ::close(dfd);
    }
#endif
}

void
mergeJsonLines(const std::string &path, const std::string &bench,
               const std::vector<std::string> &rows)
{
    // Keep other benches' lines.  The file is line-oriented by
    // construction, so a substring probe of the "bench" field is
    // enough to identify ownership.
    std::vector<std::string> kept;
    {
        std::ifstream in(path);
        std::string line;
        const std::string own = "\"bench\": \"" + jsonEscape(bench) + "\"";
        while (std::getline(in, line)) {
            if (line.find('{') == std::string::npos)
                continue;
            if (line.find(own) != std::string::npos)
                continue;
            if (!line.empty() && line.back() == ',')
                line.pop_back();
            kept.push_back(line);
        }
    }
    kept.insert(kept.end(), rows.begin(), rows.end());

    std::string out = "[\n";
    for (std::size_t i = 0; i < kept.size(); ++i) {
        out += kept[i];
        out += i + 1 < kept.size() ? ",\n" : "\n";
    }
    out += "]\n";
    atomicWriteFile(path, out);
}

std::string
jsonSection(const std::string &doc, const std::string &key)
{
    const std::string needle = "\"" + jsonEscape(key) + "\":";
    // Find the needle at object-key position (column start after
    // indentation) to avoid matching inside nested strings.
    std::size_t at = std::string::npos;
    std::size_t from = 0;
    while ((at = doc.find(needle, from)) != std::string::npos) {
        std::size_t bol = doc.find_last_of('\n', at);
        std::size_t line_start = bol == std::string::npos ? 0 : bol + 1;
        if (doc.find_first_not_of(' ', line_start) == at)
            break;
        from = at + 1;
    }
    if (at == std::string::npos)
        return "";

    std::size_t i = at + needle.size();
    while (i < doc.size() && (doc[i] == ' ' || doc[i] == '\n'))
        ++i;
    if (i >= doc.size())
        return "";

    if (doc[i] != '{' && doc[i] != '[') {
        // Scalar: runs to the next comma / newline / closing brace.
        std::size_t end = i;
        if (doc[i] == '"') {
            end = i + 1;
            while (end < doc.size() &&
                   (doc[end] != '"' || doc[end - 1] == '\\'))
                ++end;
            ++end;
        } else {
            while (end < doc.size() && doc[end] != ',' &&
                   doc[end] != '\n' && doc[end] != '}')
                ++end;
        }
        return doc.substr(i, end - i);
    }

    // Container: scan to the balanced close, skipping strings.
    const char open = doc[i];
    const char close = open == '{' ? '}' : ']';
    int depth = 0;
    bool in_string = false;
    for (std::size_t j = i; j < doc.size(); ++j) {
        char c = doc[j];
        if (in_string) {
            if (c == '\\')
                ++j;
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '"')
            in_string = true;
        else if (c == open)
            ++depth;
        else if (c == close && --depth == 0)
            return doc.substr(i, j - i + 1);
    }
    return "";
}

} // namespace fidelity
