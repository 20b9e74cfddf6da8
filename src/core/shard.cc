#include "core/shard.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <thread>

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "base/crc.hh"
#include "base/json.hh"
#include "base/logging.hh"
#include "base/signals.hh"
#include "trace/recorded.hh"

namespace vmsim
{

namespace
{

constexpr const char *kShardLogKind = "vmsim-shard-log";
constexpr const char *kShardMetaKind = "vmsim-shard-meta";
constexpr std::uint64_t kShardVersion = 1;
constexpr const char *kJournalKind = "vmsim-sweep-journal";
// Version 2 added the CRC32 line frame; version-1 (unframed) lines are
// still accepted by the walker.
constexpr std::uint64_t kJournalVersion = 2;

/** The "kind" a log's header line carries. */
const char *
headerKind(ShardLog::Kind kind)
{
    return kind == ShardLog::Kind::Journal ? kJournalKind : kShardLogKind;
}

std::uint64_t
unixMs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

std::string
shardLogPath(const std::string &dir, const std::string &owner)
{
    return dir + "/shard-" + owner + ".jsonl";
}

std::string
metaPath(const std::string &dir)
{
    return dir + "/meta.json";
}

Status
ensureDir(const std::string &dir)
{
    if (::mkdir(dir.c_str(), 0777) == 0 || errno == EEXIST)
        return Status();
    return errnoError(dir, "cannot create shard directory");
}

ErrorCode
codeFromName(const std::string &name)
{
    static constexpr ErrorCode kCodes[] = {
        ErrorCode::InvalidArgument, ErrorCode::InvalidConfig,
        ErrorCode::IoError,         ErrorCode::ParseError,
        ErrorCode::Truncated,       ErrorCode::Unsupported,
        ErrorCode::Canceled,        ErrorCode::Internal,
        ErrorCode::Unknown,
    };
    for (ErrorCode c : kCodes)
        if (name == errorCodeName(c))
            return c;
    return ErrorCode::Unknown;
}

/** "%016llx" rendering of a specFingerprint() value. */
std::string
fingerprintHex(std::uint64_t fp)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fp));
    return buf;
}

/** The {"cell":N,"results":...} payload for one completed cell. */
std::string
encodeCellPayload(std::size_t flat, const Results &results)
{
    Json line = Json::object();
    line.set("cell", static_cast<std::uint64_t>(flat));
    line.set("results", results.serialize());
    return line.dump();
}

/**
 * Inverse of encodeCellPayload(). The log stores only exact integers;
 * the cost model comes from @p spec so derived doubles reproduce
 * bit-for-bit. Rejects records whose cell index is outside the grid.
 * A @p framed record was written after per-core counters existed, so
 * it must carry them.
 */
Expected<std::pair<std::size_t, Results>>
decodeCellPayload(const std::string &payload, const SweepSpec &spec,
                  bool framed)
{
    Expected<Json> j = Json::parse(payload);
    if (!j.ok())
        return makeError(ErrorCode::ParseError, "journal",
                         "journal record is not JSON: ",
                         j.error().message);
    const Json *cell = j.value().find("cell");
    const Json *results = j.value().find("results");
    if (!cell || !cell->isNumber() || !results)
        return makeError(ErrorCode::ParseError, "journal",
                         "journal record lacks cell/results fields");
    std::size_t flat = cell->asUint();
    if (flat >= spec.numCells())
        return makeError(ErrorCode::ParseError, "journal",
                         "journal record cell ", flat,
                         " is outside the grid (", spec.numCells(),
                         " cells)");
    Expected<Results> r =
        Results::deserialize(*results, spec.cell(flat).config.costs,
                             framed);
    if (!r.ok())
        return r.error();
    return std::make_pair(flat, std::move(r).orThrow());
}

/** Line 1 of a log of @p kind. */
std::string
headerPayload(ShardLog::Kind kind, const std::string &owner,
              const SweepSpec &spec)
{
    const bool journal = kind == ShardLog::Kind::Journal;
    Json header = Json::object();
    header.set("kind", headerKind(kind));
    header.set("version", journal ? kJournalVersion : kShardVersion);
    if (!journal)
        header.set("owner", owner);
    header.set("fingerprint", fingerprintHex(specFingerprint(spec)));
    if (journal)
        header.set("cells", static_cast<std::uint64_t>(spec.numCells()));
    return header.dump();
}

/**
 * The header keys besides kind and fingerprint: a journal carries a
 * version it was written at (1: unframed lines, 2: CRC-framed) and the
 * grid's cell count and no owner; a shard log carries kShardVersion
 * and @p owner, the owner its file name names, and no cell count.
 */
Status
checkHeaderFields(const Json &header, ShardLog::Kind kind,
                  const SweepSpec &spec, const std::string &owner)
{
    auto bad = [](auto &&...msg) {
        return Status(makeError(ErrorCode::InvalidArgument, "log header",
                                std::forward<decltype(msg)>(msg)...));
    };
    const bool journal = kind == ShardLog::Kind::Journal;
    const Json *version = header.find("version");
    const Json *cells = header.find("cells");
    const Json *who = header.find("owner");
    if (!version || !version->isNumber())
        return bad("missing or mistyped 'version'");
    const std::uint64_t v = version->asUint();
    if (journal ? (v != 1 && v != kJournalVersion) : v != kShardVersion)
        return bad("unsupported version ", v);
    if (journal) {
        if (!cells || !cells->isNumber() ||
            cells->asUint() != spec.numCells())
            return bad("'cells' does not match the grid's ",
                       spec.numCells(), " cells");
        if (who)
            return bad("a journal names no owner");
        return Status();
    }
    if (!who || !who->isString() || who->asString() != owner)
        return bad("'owner' is not '", owner, "'");
    if (cells)
        return bad("a shard log carries no cell count");
    return Status();
}

/** Everything one log holds, in append order. */
struct ShardLogLoad
{
    struct Lease
    {
        std::size_t cell;
        std::uint64_t expiresMs;
    };
    struct Fail
    {
        std::size_t cell;
        Error err;
    };

    std::vector<Lease> leases;
    std::vector<std::pair<std::size_t, Results>> commits;
    std::vector<Fail> fails;
    bool hasHeader = false;

    /** Byte length of the valid prefix (ends on a record boundary). */
    std::uint64_t validBytes = 0;

    /** The final line was torn or checksum-corrupt: the owner cuts the
     *  file back to validBytes before appending. */
    bool torn = false;

    /** The final record is intact but its newline never hit the disk:
     *  the owner emits a bare '\n' before the next record. */
    bool repairNewline = false;
};

/**
 * Walk one log whose header must name @p kind: CRC frame per line
 * (unframed pre-CRC lines pass through), torn final line reported (not
 * fatal), undecodable interior line fatal, a header of the wrong kind,
 * version, fingerprint, cell count (journals) or @p owner (shard
 * logs) fatal. A missing file loads as empty.
 */
Expected<ShardLogLoad>
loadShardLog(const std::string &path, const SweepSpec &spec,
             ShardLog::Kind kind, const std::string &owner)
{
    ShardLogLoad load;
    std::ifstream is(path, std::ios::binary);
    if (!is.is_open())
        return load; // fresh log

    std::string text((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    const std::size_t size = text.size();
    const std::string fingerprint = fingerprintHex(specFingerprint(spec));

    // Decode one line: the header first, records after. Returns the
    // reason a line is unusable; ParseErrors on the *final* line are
    // downgraded to a torn tail below, InvalidArgument (a well-formed
    // header of the wrong kind or spec) never is.
    auto interpret = [&](const std::string &line) -> Status {
        std::string payload;
        const FrameCheck frame = crcUnframeLine(line, payload);
        switch (frame) {
          case FrameCheck::Mismatch:
            return makeError(ErrorCode::ParseError, path,
                             "log record checksum mismatch");
          case FrameCheck::Malformed:
            return makeError(ErrorCode::ParseError, path,
                             "malformed log checksum frame");
          case FrameCheck::Legacy:
          case FrameCheck::Ok:
            break;
        }
        if (!load.hasHeader) {
            Expected<Json> header = Json::parse(payload);
            if (!header.ok())
                return makeError(ErrorCode::ParseError, path,
                                 "log header is not JSON: ",
                                 header.error().message);
            const Json *k = header.value().find("kind");
            const Json *fp = header.value().find("fingerprint");
            if (!k || !k->isString() ||
                k->asString() != headerKind(kind) || !fp ||
                !fp->isString())
                return makeError(ErrorCode::InvalidArgument, path, "'",
                                 path, "' is not a ", headerKind(kind),
                                 " file");
            if (fp->asString() != fingerprint)
                return makeError(
                    ErrorCode::InvalidArgument, path, "log '", path,
                    "' was written for a different spec (fingerprint ",
                    fp->asString(), " != ", fingerprint,
                    "); refusing to mix results");
            if (Status st = checkHeaderFields(header.value(), kind, spec,
                                              owner);
                !st.ok())
                return makeError(ErrorCode::InvalidArgument, path, "log '",
                                 path, "' header: ", st.error().message);
            load.hasHeader = true;
            return Status();
        }
        Expected<Json> rec = Json::parse(payload);
        if (!rec.ok())
            return makeError(ErrorCode::ParseError, path,
                             "log record is not JSON: ",
                             rec.error().message);
        if (const Json *lease = rec.value().find("lease")) {
            const Json *exp = rec.value().find("expires_ms");
            if (!lease->isNumber() || !exp || !exp->isNumber())
                return makeError(ErrorCode::ParseError, path,
                                 "malformed shard lease record");
            std::size_t cell = lease->asUint();
            if (cell >= spec.numCells())
                return makeError(ErrorCode::ParseError, path,
                                 "shard lease for cell ", cell,
                                 " outside the grid (",
                                 spec.numCells(), " cells)");
            load.leases.push_back({cell, exp->asUint()});
            return Status();
        }
        if (const Json *failed = rec.value().find("fail")) {
            const Json *code = rec.value().find("code");
            const Json *message = rec.value().find("message");
            const Json *context = rec.value().find("context");
            if (!failed->isNumber() || !code || !code->isString() ||
                !message || !message->isString() || !context ||
                !context->isString())
                return makeError(ErrorCode::ParseError, path,
                                 "malformed shard fail record");
            std::size_t cell = failed->asUint();
            if (cell >= spec.numCells())
                return makeError(ErrorCode::ParseError, path,
                                 "shard failure for cell ", cell,
                                 " outside the grid (",
                                 spec.numCells(), " cells)");
            Error err;
            err.code = codeFromName(code->asString());
            err.message = message->asString();
            err.context = context->asString();
            load.fails.push_back({cell, std::move(err)});
            return Status();
        }
        Expected<std::pair<std::size_t, Results>> cell =
            decodeCellPayload(payload, spec, frame == FrameCheck::Ok);
        if (!cell.ok())
            return cell.error();
        load.commits.push_back(std::move(cell).orThrow());
        return Status();
    };

    std::size_t pos = 0;
    while (pos < size) {
        const std::size_t nl = text.find('\n', pos);
        const bool terminated = nl != std::string::npos;
        const std::size_t lineStart = pos;
        const std::size_t lineEnd = terminated ? nl : size;
        const std::size_t nextPos = terminated ? nl + 1 : size;
        std::string line = text.substr(lineStart, lineEnd - lineStart);
        pos = nextPos;

        if (line.empty()) {
            if (terminated)
                load.validBytes = nextPos;
            continue;
        }

        Status st = interpret(line);
        if (st.ok()) {
            load.validBytes = nextPos;
            load.repairNewline = !terminated;
            continue;
        }
        if (st.error().code == ErrorCode::InvalidArgument)
            return st.error(); // wrong log / wrong spec: never torn

        // Is anything but blank space left after this line? Then the
        // damage is mid-file, not a torn tail: refuse to load rather
        // than silently re-running interior cells over corruption.
        bool blankTail = true;
        for (std::size_t i = nextPos; i < size && blankTail; ++i)
            blankTail = text[i] == '\n' || text[i] == '\r' ||
                        text[i] == ' ' || text[i] == '\t';
        if (!blankTail)
            return makeError(ErrorCode::ParseError, path, "log '", path,
                             "' is corrupt mid-file at byte ",
                             lineStart, ": ", st.error().message,
                             " (followed by further records)");

        // A torn header on a file that never looked like a log is more
        // likely a caller mistake than a crash artifact: refuse instead
        // of truncating someone's file to zero bytes.
        if (!load.hasHeader && line[0] != '{')
            return makeError(ErrorCode::InvalidArgument, path, "'",
                             path, "' is not a ", headerKind(kind),
                             " file");

        load.torn = true;
        load.validBytes = lineStart;
        break;
    }
    return load;
}

/**
 * Create meta.json if absent (atomic, so racing first workers write
 * identical bytes), or verify it matches @p spec.
 */
Status
writeOrCheckMeta(const std::string &dir, const SweepSpec &spec)
{
    const std::string path = metaPath(dir);
    const std::string fp = fingerprintHex(specFingerprint(spec));
    std::ifstream is(path, std::ios::binary);
    if (is.is_open()) {
        std::string text((std::istreambuf_iterator<char>(is)),
                         std::istreambuf_iterator<char>());
        Expected<Json> meta = Json::parse(text);
        if (!meta.ok())
            return makeError(ErrorCode::ParseError, path,
                             "shard meta.json is not JSON: ",
                             meta.error().message);
        const Json *kind = meta.value().find("kind");
        const Json *metaFp = meta.value().find("fingerprint");
        if (!kind || !kind->isString() ||
            kind->asString() != kShardMetaKind || !metaFp ||
            !metaFp->isString())
            return makeError(ErrorCode::InvalidArgument, path, "'",
                             path, "' is not a vmsim shard meta file");
        if (metaFp->asString() != fp)
            return makeError(
                ErrorCode::InvalidArgument, path, "shard directory '",
                dir, "' belongs to a different sweep (fingerprint ",
                metaFp->asString(), " != ", fp,
                "); refusing to mix results");
        return Status();
    }
    Json meta = Json::object();
    meta.set("kind", kShardMetaKind);
    meta.set("version", kShardVersion);
    meta.set("fingerprint", fp);
    meta.set("cells", static_cast<std::uint64_t>(spec.numCells()));
    return atomicWriteFile(path, meta.dump() + "\n");
}

/** Sorted "shard-*.jsonl" names in @p dir. */
Expected<std::vector<std::string>>
listShardLogs(const std::string &dir)
{
    DIR *d = ::opendir(dir.c_str());
    if (!d)
        return errnoError(dir, "cannot open shard directory");
    std::vector<std::string> names;
    while (struct dirent *ent = ::readdir(d)) {
        const std::string name = ent->d_name;
        if (name.rfind("shard-", 0) == 0 && name.size() > 12 &&
            name.compare(name.size() - 6, 6, ".jsonl") == 0)
            names.push_back(name);
    }
    ::closedir(d);
    // Deterministic scan order: merge's first-wins dedup must not
    // depend on readdir()'s hash order.
    std::sort(names.begin(), names.end());
    return names;
}

} // anonymous namespace

ShardLog::ShardLog(const std::string &path, Kind kind,
                   const SweepSpec &spec, bool fresh,
                   const std::string &owner, const CrashPlan &crash)
    : path_(path), owner_(owner), crash_(crash)
{
    log_.open(path_, /*durable=*/true).orThrow();
    ShardLogLoad load;
    if (fresh)
        truncateFile(path_, 0).orThrow();
    else
        load = loadShardLog(path_, spec, kind, owner_).orThrow();
    if (load.torn) {
        warn("log '", path_, "': torn record at byte ", load.validBytes,
             "; truncating and resuming");
        truncateFile(path_, load.validBytes).orThrow();
    }
    recovered_ = std::move(load.commits);
    if (!load.hasHeader)
        append(headerPayload(kind, owner_, spec));
    else if (load.repairNewline)
        log_.append("").orThrow(); // terminate the dangling record
}

ShardLog::ShardLog(const std::string &dir, const std::string &owner,
                   const SweepSpec &spec, const CrashPlan &crash)
    : ShardLog(shardLogPath(dir, owner), Kind::Shard, spec,
               /*fresh=*/false, owner, crash)
{}

void
ShardLog::append(const std::string &payload)
{
    const std::string line = crcFrameLine(payload);
    std::lock_guard<std::mutex> lock(mutex_);
    if (crash_.armed() && appends_ >= crash_.afterAppends) {
        // The seeded crash point: die exactly like a SIGKILLed worker
        // would, optionally leaving a torn final record behind.
        if (crash_.throwInstead)
            throw VmsimError(makeError(
                ErrorCode::Canceled, path_,
                "injected shard crash after ", appends_, " appends"));
        if (crash_.tornTail)
            log_.appendTorn(line, line.size() / 2).orThrow();
        ::raise(SIGKILL);
    }
    log_.append(line).orThrow();
    ++appends_;
}

void
ShardLog::lease(std::size_t cell, std::uint64_t expiresMs)
{
    Json rec = Json::object();
    rec.set("lease", static_cast<std::uint64_t>(cell));
    rec.set("expires_ms", expiresMs);
    append(rec.dump());
}

void
ShardLog::commit(std::size_t cell, const Results &results)
{
    append(encodeCellPayload(cell, results));
}

void
ShardLog::fail(std::size_t cell, const Error &err)
{
    Json rec = Json::object();
    rec.set("fail", static_cast<std::uint64_t>(cell));
    rec.set("code", errorCodeName(err.code));
    rec.set("message", err.message);
    rec.set("context", err.context);
    append(rec.dump());
}

Expected<ShardScan>
scanShardDir(const std::string &dir, const SweepSpec &spec)
{
    if (Status st = writeOrCheckMeta(dir, spec); !st.ok())
        return st.error();

    const std::size_t n = spec.numCells();
    ShardScan scan;
    scan.state.assign(n, ShardScan::Cell::Open);
    scan.results.resize(n);
    scan.errors.resize(n);
    scan.leaseMs.assign(n, 0);
    scan.leaseOwner.assign(n, "");

    Expected<std::vector<std::string>> names = listShardLogs(dir);
    if (!names.ok())
        return names.error();

    for (const std::string &name : names.value()) {
        const std::string path = dir + "/" + name;
        // "shard-<owner>.jsonl" — the owner the leases belong to.
        const std::string owner = name.substr(6, name.size() - 12);
        Expected<ShardLogLoad> loaded =
            loadShardLog(path, spec, ShardLog::Kind::Shard, owner);
        if (!loaded.ok())
            return loaded.error();
        ShardLogLoad &load = loaded.value();
        for (const ShardLogLoad::Lease &l : load.leases) {
            if (l.expiresMs > scan.leaseMs[l.cell]) {
                scan.leaseMs[l.cell] = l.expiresMs;
                scan.leaseOwner[l.cell] = owner;
            }
        }
        for (auto &[cell, results] : load.commits) {
            if (scan.state[cell] != ShardScan::Cell::Open)
                continue; // duplicate commit: identical bytes, keep #1
            scan.state[cell] = ShardScan::Cell::Ok;
            scan.results[cell] = std::move(results);
            ++scan.done;
        }
        for (ShardLogLoad::Fail &f : load.fails) {
            if (scan.state[f.cell] != ShardScan::Cell::Open)
                continue;
            scan.state[f.cell] = ShardScan::Cell::Failed;
            scan.errors[f.cell] = std::move(f.err);
            ++scan.done;
        }
    }
    return scan;
}

Expected<ShardMerge>
mergeShardDir(const std::string &dir, const SweepSpec &spec)
{
    Expected<ShardScan> scanned = scanShardDir(dir, spec);
    if (!scanned.ok())
        return scanned.error();
    ShardScan scan = std::move(scanned).orThrow();

    const std::size_t n = spec.numCells();
    std::vector<Results> results = std::move(scan.results);
    std::vector<CellOutcome> outcomes(n);
    ShardMerge merge;
    for (std::size_t i = 0; i < n; ++i) {
        switch (scan.state[i]) {
          case ShardScan::Cell::Ok:
            outcomes[i].ok = true;
            outcomes[i].attempts = 0;
            outcomes[i].fromJournal = true;
            ++merge.completed;
            break;
          case ShardScan::Cell::Failed:
            outcomes[i].ok = false;
            outcomes[i].error = std::move(scan.errors[i]);
            ++merge.completed;
            break;
          case ShardScan::Cell::Open:
            outcomes[i].ok = false;
            outcomes[i].error = makeError(
                ErrorCode::Unknown, "cell " + std::to_string(i),
                "no shard worker ever committed cell ", i);
            ++merge.missing;
            break;
        }
    }
    merge.results =
        SweepResults(spec, std::move(results), {}, std::move(outcomes));
    return merge;
}

std::size_t
runShardWorker(const SweepSpec &spec, const ShardOptions &opts)
{
    if (opts.dir.empty())
        throwError(ErrorCode::InvalidArgument, "shard",
                   "shard worker needs a shard directory");
    const std::string owner =
        opts.owner.empty() ? "pid" + std::to_string(::getpid())
                           : opts.owner;
    ensureDir(opts.dir).orThrow();
    writeOrCheckMeta(opts.dir, spec).orThrow();
    ShardLog log(opts.dir, owner, spec, opts.crash);

    const std::size_t n = spec.numCells();
    std::unique_ptr<TraceCache> cache;
    if (opts.traceCacheMb > 0)
        cache = std::make_unique<TraceCache>(opts.traceCacheMb *
                                             std::size_t{1} << 20);
    const ObsOptions obs; // per-cell exporters stay per-process
    CellRunner runner(spec, obs, opts.retry, opts.faults,
                      opts.batchSize, opts.verify,
                      /*wantLatency=*/false, cache.get());

    const auto leaseSpanMs =
        static_cast<std::uint64_t>(opts.leaseSeconds * 1000.0);
    std::size_t committed = 0;
    while (true) {
        if (opts.graceful && shutdownRequested())
            break;
        ShardScan scan = scanShardDir(opts.dir, spec).orThrow();
        if (scan.complete())
            break;

        // Lowest open cell that is unleased, stale, or already ours
        // (a restarted worker resumes its own claims immediately).
        const std::uint64_t now = unixMs();
        std::size_t pick = n;
        for (std::size_t i = 0; i < n; ++i) {
            if (scan.state[i] != ShardScan::Cell::Open)
                continue;
            if (scan.leaseMs[i] == 0 || scan.leaseMs[i] <= now ||
                scan.leaseOwner[i] == owner) {
                pick = i;
                break;
            }
        }
        if (pick == n) {
            // Every open cell is under a live foreign lease: wait for
            // a commit or an expiry instead of duplicating live work.
            std::this_thread::sleep_for(std::chrono::duration<double>(
                std::min(0.2, opts.leaseSeconds / 4)));
            continue;
        }
        if (scan.leaseMs[pick] != 0 && scan.leaseMs[pick] <= now &&
            scan.leaseOwner[pick] != owner)
            warn("shard worker '", owner, "': reclaiming cell ", pick,
                 " from stale lease by '", scan.leaseOwner[pick], "'");

        log.lease(pick, now + leaseSpanMs);
        CellRunner::Hooks extra;
        if (opts.graceful)
            extra.cancel = shutdownToken();
        CellExecution exec = runner.run(pick, extra);
        if (!exec.outcome.ok && opts.graceful && shutdownRequested())
            break; // drained mid-cell: leave the lease to expire
        if (exec.outcome.ok)
            log.commit(pick, exec.results);
        else
            log.fail(pick, exec.outcome.error);
        ++committed;
    }
    return committed;
}

} // namespace vmsim
