/**
 * @file
 * The distributed-service protocol battery: frame round-trips, torn
 * and malformed frames, typed-payload truncation at every field
 * boundary, lease-book state machine (injected clocks), duplicate
 * RESULT idempotence, corrupt RESULT journals (every exit through
 * fatal() with the peer named, never bad_alloc), and the checked
 * request parser the daemon relies on to survive malformed requests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.hh"
#include "sim/checkpoint.hh"
#include "sim/logging.hh"
#include "sim/parse.hh"
#include "sim/service.hh"
#include "sim/service_proto.hh"
#include "test_util.hh"

using namespace fidelity;
using fidelity::test::ScopedPath;

namespace
{

/** Decode exactly one complete frame or fail the test. */
Frame
decodeOne(const std::string &bytes)
{
    Frame f;
    std::size_t consumed = 0;
    std::string err;
    EXPECT_EQ(tryDecodeFrame(bytes, f, consumed, err),
              FrameDecodeStatus::Complete)
        << err;
    EXPECT_EQ(consumed, bytes.size());
    return f;
}

/** A two-shard journal exercising every FIDCKPT field kind. */
CampaignSnapshot
referenceJournal()
{
    CampaignSnapshot snap;
    snap.configHash = 0x0123456789abcdefULL;
    ShardRecord a;
    a.ordinal = 0;
    a.cell = 1;
    a.maskedCount = 2;
    a.trials = 4;
    ShardRecord b;
    b.ordinal = 1;
    b.cell = 2;
    b.maskedCount = 1;
    b.trials = 3;
    b.samples = {{0.25, true}, {3.5, false}};
    snap.shards = {a, b};
    return snap;
}

/** Field-by-field equality of two shard journals. */
void
expectSameRecords(const std::vector<ShardRecord> &got,
                  const std::vector<ShardRecord> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE("record " + std::to_string(i));
        EXPECT_EQ(got[i].ordinal, want[i].ordinal);
        EXPECT_EQ(got[i].cell, want[i].cell);
        EXPECT_EQ(got[i].maskedCount, want[i].maskedCount);
        EXPECT_EQ(got[i].trials, want[i].trials);
        EXPECT_EQ(got[i].samples, want[i].samples);
    }
}

} // namespace

// ----- Frame round-trips -------------------------------------------

TEST(ServiceProto, HelloRoundTrips)
{
    HelloPayload in;
    in.version = kServiceProtocolVersion;
    in.worker = "worker-7";
    in.threads = 3;

    Frame f = decodeOne(encodeHello(in));
    EXPECT_EQ(f.type, FrameType::Hello);

    HelloPayload out;
    std::string err;
    ASSERT_TRUE(tryParseHello(f, out, err)) << err;
    EXPECT_EQ(out.version, in.version);
    EXPECT_EQ(out.worker, "worker-7");
    EXPECT_EQ(out.threads, 3u);
}

TEST(ServiceProto, SpecRoundTrips)
{
    SpecPayload in;
    in.configHash = 0xfeedfacecafebeefULL;
    in.requestJson = "{\"network\": \"resnet\"}";

    SpecPayload out;
    std::string err;
    ASSERT_TRUE(tryParseSpec(decodeOne(encodeSpec(in)), out, err)) << err;
    EXPECT_EQ(out.configHash, in.configHash);
    EXPECT_EQ(out.requestJson, in.requestJson);
}

TEST(ServiceProto, ReadyLeaseRoundTrip)
{
    ReadyPayload ready;
    ready.configHash = 42;
    ReadyPayload rout;
    std::string err;
    ASSERT_TRUE(
        tryParseReady(decodeOne(encodeReady(ready)), rout, err)) << err;
    EXPECT_EQ(rout.configHash, 42u);

    LeasePayload lease;
    lease.first = 16;
    lease.count = 8;
    LeasePayload lout;
    ASSERT_TRUE(
        tryParseLease(decodeOne(encodeLease(lease)), lout, err)) << err;
    EXPECT_EQ(lout.first, 16u);
    EXPECT_EQ(lout.count, 8u);
}

TEST(ServiceProto, ResultCarriesAJournalByteForByte)
{
    ResultPayload in;
    in.first = 24;
    in.count = 8;
    in.journal = encodeSnapshot(referenceJournal());

    ResultPayload out;
    std::string err;
    ASSERT_TRUE(
        tryParseResult(decodeOne(encodeResult(in)), out, err)) << err;
    EXPECT_EQ(out.first, 24u);
    EXPECT_EQ(out.count, 8u);
    EXPECT_EQ(out.journal, in.journal);

    // The carried journal is decodable FIDCKPT, bit-for-bit.
    CampaignSnapshot snap =
        decodeSnapshot(out.journal, "RESULT journal from worker-1");
    EXPECT_EQ(snap.configHash, referenceJournal().configHash);
    ASSERT_EQ(snap.shards.size(), 2u);
    EXPECT_EQ(snap.shards[1].samples.size(), 2u);
}

TEST(ServiceProto, BareFramesRoundTrip)
{
    EXPECT_EQ(decodeOne(encodeHeartbeat()).type, FrameType::Heartbeat);
    EXPECT_EQ(decodeOne(encodeDone()).type, FrameType::Done);
    EXPECT_EQ(decodeOne(encodeDrain()).type, FrameType::Drain);
    EXPECT_TRUE(decodeOne(encodeDone()).payload.empty());
}

TEST(ServiceProto, TextFramesRoundTrip)
{
    std::string text, err;
    ASSERT_TRUE(tryParseText(decodeOne(encodeRequest("{\"a\": 1}")),
                             FrameType::Request, text, err)) << err;
    EXPECT_EQ(text, "{\"a\": 1}");
    ASSERT_TRUE(tryParseText(decodeOne(encodeResponse("ok")),
                             FrameType::Response, text, err)) << err;
    EXPECT_EQ(text, "ok");
    ASSERT_TRUE(tryParseText(decodeOne(encodeErrorFrame("boom")),
                             FrameType::Error, text, err)) << err;
    EXPECT_EQ(text, "boom");
}

TEST(ServiceProto, StreamOfFramesDecodesInOrder)
{
    const std::string stream = encodeHeartbeat() +
                               encodeLease({4, 4}) + encodeDone();
    std::string_view rest = stream;
    std::vector<FrameType> seen;
    while (!rest.empty()) {
        Frame f;
        std::size_t consumed = 0;
        std::string err;
        ASSERT_EQ(tryDecodeFrame(rest, f, consumed, err),
                  FrameDecodeStatus::Complete)
            << err;
        seen.push_back(f.type);
        rest.remove_prefix(consumed);
    }
    EXPECT_EQ(seen, (std::vector<FrameType>{FrameType::Heartbeat,
                                            FrameType::Lease,
                                            FrameType::Done}));
}

// ----- Torn, truncated, and malformed frames -----------------------

TEST(ServiceProto, EveryTornPrefixAsksForMoreBytes)
{
    const std::string whole = encodeResult(
        {0, 8, encodeSnapshot(referenceJournal())});
    for (std::size_t cut = 0; cut < whole.size(); ++cut) {
        SCOPED_TRACE("prefix of " + std::to_string(cut) + " bytes");
        Frame f;
        std::size_t consumed = 0;
        std::string err;
        EXPECT_EQ(tryDecodeFrame(whole.substr(0, cut), f, consumed, err),
                  FrameDecodeStatus::NeedMore);
    }
}

TEST(ServiceProto, ZeroLengthFrameIsMalformed)
{
    const std::string bytes(4, '\0'); // length word = 0
    Frame f;
    std::size_t consumed = 0;
    std::string err;
    EXPECT_EQ(tryDecodeFrame(bytes, f, consumed, err),
              FrameDecodeStatus::Malformed);
    EXPECT_NE(err.find("zero length"), std::string::npos) << err;
}

TEST(ServiceProto, OversizedLengthIsMalformedNotAllocated)
{
    // A length just above the cap must be rejected from the 4-byte
    // prefix alone — no waiting for (and no allocating) 4 GB.
    std::string bytes(4, '\0');
    const std::uint32_t huge = kMaxFrameBytes + 1;
    std::memcpy(&bytes[0], &huge, sizeof(huge));
    Frame f;
    std::size_t consumed = 0;
    std::string err;
    EXPECT_EQ(tryDecodeFrame(bytes, f, consumed, err),
              FrameDecodeStatus::Malformed);
    EXPECT_NE(err.find("frame cap"), std::string::npos) << err;
}

TEST(ServiceProto, UnknownFrameTypeIsMalformed)
{
    std::string bytes = encodeHeartbeat();
    bytes[4] = static_cast<char>(0x7f); // off the FrameType enum
    Frame f;
    std::size_t consumed = 0;
    std::string err;
    EXPECT_EQ(tryDecodeFrame(bytes, f, consumed, err),
              FrameDecodeStatus::Malformed);
    EXPECT_NE(err.find("unknown frame type"), std::string::npos) << err;
}

TEST(ServiceProto, OverCapPayloadIsACallerBug)
{
    EXPECT_DEATH((void)encodeFrame(FrameType::Result,
                                   std::string(kMaxFrameBytes, 'x')),
                 "exceeds the .*frame cap");
}

// ----- Typed-payload truncation matrix -----------------------------

TEST(ServiceProto, TypedPayloadsRejectEveryTruncation)
{
    // For each typed frame: cut the payload at every byte boundary
    // short of the whole and expect a diagnostic, never a crash or a
    // silently-defaulted field.
    struct Case
    {
        const char *name;
        std::string framed;
    };
    const std::vector<Case> cases = {
        {"HELLO", encodeHello({1, "w", 2})},
        {"SPEC", encodeSpec({7, "{\"network\": \"resnet\"}"})},
        {"READY", encodeReady({7})},
        {"LEASE", encodeLease({0, 8})},
        {"RESULT",
         encodeResult({0, 4, encodeSnapshot(referenceJournal())})},
    };
    for (const Case &c : cases) {
        Frame whole = decodeOne(c.framed);
        for (std::size_t cut = 0; cut < whole.payload.size(); ++cut) {
            SCOPED_TRACE(std::string(c.name) + " payload cut to " +
                         std::to_string(cut) + " bytes");
            Frame torn = whole;
            torn.payload.resize(cut);
            std::string err;
            bool ok = true;
            if (whole.type == FrameType::Hello) {
                HelloPayload p;
                ok = tryParseHello(torn, p, err);
            } else if (whole.type == FrameType::Spec) {
                SpecPayload p;
                ok = tryParseSpec(torn, p, err);
            } else if (whole.type == FrameType::Ready) {
                ReadyPayload p;
                ok = tryParseReady(torn, p, err);
            } else if (whole.type == FrameType::Lease) {
                LeasePayload p;
                ok = tryParseLease(torn, p, err);
            } else {
                ResultPayload p;
                ok = tryParseResult(torn, p, err);
            }
            EXPECT_FALSE(ok);
            EXPECT_FALSE(err.empty());
        }
    }
}

TEST(ServiceProto, TrailingPayloadBytesAreRejected)
{
    Frame f = decodeOne(encodeLease({0, 8}));
    f.payload.push_back('\0');
    LeasePayload p;
    std::string err;
    EXPECT_FALSE(tryParseLease(f, p, err));
    EXPECT_NE(err.find("trailing payload bytes"), std::string::npos)
        << err;
}

TEST(ServiceProto, WrongFrameTypeNamesBothTypes)
{
    HelloPayload p;
    std::string err;
    EXPECT_FALSE(tryParseHello(decodeOne(encodeDone()), p, err));
    EXPECT_NE(err.find("expected a HELLO frame, got DONE"),
              std::string::npos)
        << err;
}

TEST(ServiceProto, AbsurdStringLengthFailsWithoutAllocating)
{
    // A HELLO whose name declares 2^62 bytes: the reader must bound
    // the declared length by the bytes present, not reserve() it.
    PayloadWriter w;
    w.u64(kServiceProtocolVersion);
    w.u64(1ULL << 62); // string length prefix, no bytes behind it
    Frame f;
    f.type = FrameType::Hello;
    f.payload = w.bytes();
    HelloPayload p;
    std::string err;
    EXPECT_FALSE(tryParseHello(f, p, err));
    EXPECT_FALSE(err.empty());
}

// ----- Lease book ---------------------------------------------------

TEST(LeaseBook, CutsThePlanIntoChunksWithARemainder)
{
    LeaseBook book(21, 8); // chunks [0,8) [8,16) [16,21)
    EXPECT_EQ(book.chunkCount(), 3u);
    std::uint64_t first = 0, count = 0;
    EXPECT_TRUE(book.lease("a", 0.0, 30.0, first, count));
    EXPECT_EQ(first, 0u);
    EXPECT_EQ(count, 8u);
    EXPECT_TRUE(book.lease("a", 0.0, 30.0, first, count));
    EXPECT_EQ(first, 8u);
    EXPECT_TRUE(book.lease("b", 0.0, 30.0, first, count));
    EXPECT_EQ(first, 16u);
    EXPECT_EQ(count, 5u); // the remainder chunk
    EXPECT_FALSE(book.lease("b", 0.0, 30.0, first, count));
}

TEST(LeaseBook, ExpiredLeaseReIssuesToAnotherWorker)
{
    LeaseBook book(8, 8);
    std::uint64_t first = 0, count = 0;
    ASSERT_TRUE(book.lease("slow", 0.0, 10.0, first, count));

    // Within the deadline nothing re-issues...
    EXPECT_FALSE(book.lease("fast", 9.0, 10.0, first, count));
    // ...heartbeats extend it...
    book.heartbeat("slow", 9.0, 10.0);
    EXPECT_FALSE(book.lease("fast", 15.0, 10.0, first, count));
    // ...silence past the deadline re-issues.
    EXPECT_TRUE(book.lease("fast", 20.0, 10.0, first, count));
    EXPECT_EQ(first, 0u);
    EXPECT_EQ(book.expiredLeases(), 1u);
}

TEST(LeaseBook, ReleaseRevertsEveryLeaseOfADeadWorker)
{
    LeaseBook book(16, 4);
    std::uint64_t first = 0, count = 0;
    ASSERT_TRUE(book.lease("w", 0.0, 30.0, first, count));
    ASSERT_TRUE(book.lease("w", 0.0, 30.0, first, count));
    ASSERT_TRUE(book.lease("other", 0.0, 30.0, first, count));
    EXPECT_EQ(book.release("w"), 2u);

    // Both of w's chunks lease again; other's lease is untouched.
    ASSERT_TRUE(book.lease("x", 1.0, 30.0, first, count));
    EXPECT_EQ(first, 0u);
    ASSERT_TRUE(book.lease("x", 1.0, 30.0, first, count));
    EXPECT_EQ(first, 4u);
    ASSERT_TRUE(book.lease("x", 1.0, 30.0, first, count));
    EXPECT_EQ(first, 12u);
}

TEST(LeaseBook, DuplicateResultsAreIdempotent)
{
    LeaseBook book(8, 4);
    std::uint64_t first = 0, count = 0;
    ASSERT_TRUE(book.lease("a", 0.0, 1.0, first, count));

    // First result merges; the duplicate (a slow worker racing a
    // re-issue) is reported as such, not double-merged.
    EXPECT_EQ(book.complete(0, 4), LeaseBook::ResultOutcome::Merged);
    EXPECT_EQ(book.complete(0, 4), LeaseBook::ResultOutcome::Duplicate);
    EXPECT_EQ(book.mergedChunks(), 1u);

    // A result for a chunk whose lease expired still merges (the
    // journal is deterministic; first-to-arrive wins).
    EXPECT_EQ(book.complete(4, 4), LeaseBook::ResultOutcome::Merged);
    EXPECT_TRUE(book.allMerged());

    // Bounds that match no chunk are a protocol violation.
    EXPECT_EQ(book.complete(2, 4), LeaseBook::ResultOutcome::Unknown);
    EXPECT_EQ(book.complete(0, 8), LeaseBook::ResultOutcome::Unknown);
}

TEST(LeaseBook, MarkMergedRestoresCheckpointedChunks)
{
    LeaseBook book(12, 4);
    book.markMerged(0, 4);
    book.markMerged(8, 4);
    EXPECT_EQ(book.mergedChunks(), 2u);

    // Only the middle chunk is still leasable.
    std::uint64_t first = 0, count = 0;
    ASSERT_TRUE(book.lease("w", 0.0, 30.0, first, count));
    EXPECT_EQ(first, 4u);
    EXPECT_FALSE(book.lease("w", 0.0, 30.0, first, count));
}

// ----- Corrupt RESULT journals -------------------------------------
//
// Wire journals go through the same FIDCKPT decoder as on-disk
// checkpoints; every malformed journal must exit through fatal()
// (strict path) or a diagnostic (coordinator path) with the *peer*
// named — never through std::bad_alloc on a corrupt count.

TEST(ServiceJournal, TruncatedAtEveryFieldBoundaryNamesThePeer)
{
    const std::string whole = encodeSnapshot(referenceJournal());
    ASSERT_EQ(whole.size() % 8, 0u);
    for (std::size_t cut = 0; cut < whole.size(); cut += 8) {
        SCOPED_TRACE("journal cut to " + std::to_string(cut) +
                     " bytes");
        const std::string torn = whole.substr(0, cut);
        CampaignSnapshot snap;
        std::string err;
        EXPECT_FALSE(tryDecodeSnapshot(torn.data(), torn.size(),
                                       "RESULT journal from worker-2",
                                       snap, err));
        EXPECT_NE(err.find("RESULT journal from worker-2"),
                  std::string::npos)
            << err;
        EXPECT_DEATH(
            (void)decodeSnapshot(torn, "RESULT journal from worker-2"),
            "RESULT journal from worker-2");
    }
}

TEST(ServiceJournal, AbsurdShardCountIsBoundedByJournalSize)
{
    std::string bad = encodeSnapshot(referenceJournal());
    const std::uint64_t huge = 1ULL << 62; // would reserve() petabytes
    std::memcpy(&bad[16], &huge, sizeof(huge));
    CampaignSnapshot snap;
    std::string err;
    EXPECT_FALSE(tryDecodeSnapshot(bad.data(), bad.size(),
                                   "RESULT journal from worker-2", snap,
                                   err));
    EXPECT_NE(err.find("declares"), std::string::npos) << err;
    EXPECT_DEATH(
        (void)decodeSnapshot(bad, "RESULT journal from worker-2"),
        "declares .* shards but holds only");
}

TEST(ServiceJournal, ForeignBytesAreRejected)
{
    const std::string garbage = "definitely not FIDCKPT";
    EXPECT_DEATH(
        (void)decodeSnapshot(garbage, "RESULT journal from worker-2"),
        "not a fidelity campaign snapshot");
}

// ----- Service requests --------------------------------------------

TEST(ServiceRequestParse, CanonicalJsonRoundTrips)
{
    ServiceRequest in;
    in.network = "rnn";
    in.precision = Precision::INT8;
    in.metric = "bleu10";
    in.netSeed = 5;
    in.inputSeed = 6;
    in.samplesPerCategory = 24;
    in.seed = 99;
    in.shardGrain = 6;
    in.outputClampAbs = 64.0;
    in.targetHalfWidth = 0.0;
    in.threads = 4;
    in.batchWidth = 4;

    ServiceRequest out;
    std::string err;
    ASSERT_TRUE(tryParseServiceRequest(serviceRequestJson(in), out, err))
        << err;
    EXPECT_EQ(out.network, in.network);
    EXPECT_EQ(out.precision, in.precision);
    EXPECT_EQ(out.metric, in.metric);
    EXPECT_EQ(out.netSeed, in.netSeed);
    EXPECT_EQ(out.inputSeed, in.inputSeed);
    EXPECT_EQ(out.samplesPerCategory, in.samplesPerCategory);
    EXPECT_EQ(out.seed, in.seed);
    EXPECT_EQ(out.shardGrain, in.shardGrain);
    EXPECT_EQ(out.outputClampAbs, in.outputClampAbs);
    EXPECT_EQ(out.threads, in.threads);
    EXPECT_EQ(out.batchWidth, in.batchWidth);
}

TEST(ServiceRequestParse, OmittedKeysKeepDefaults)
{
    ServiceRequest req;
    std::string err;
    ASSERT_TRUE(tryParseServiceRequest("{}", req, err)) << err;
    EXPECT_EQ(req.network, "resnet");
    EXPECT_EQ(req.precision, Precision::FP16);
    EXPECT_EQ(req.samplesPerCategory, 120);
}

TEST(ServiceRequestParse, MalformedRequestsReturnErrorsNotDeath)
{
    // The regression the daemon depends on: every malformed request
    // must come back as (false, diagnostic) — the daemon turns that
    // into an ERROR response; a fatal() here would kill the process
    // serving everyone else's campaigns.
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"", "expected '{'"},
        {"not json", "expected"},
        {"{\"network\": \"resnet\"", "" /* unterminated */},
        {"{\"network\": [1, 2]}", "" /* nested value */},
        {"{\"seed\": 1, \"seed\": 2}", "duplicate"},
        {"{\"typo_key\": 1}", "unknown request key \"typo_key\""},
        {"{\"network\": \"vgg9000\"}", "unknown network"},
        {"{\"precision\": \"fp64\"}", "unknown precision"},
        {"{\"metric\": \"rouge\"}", "unknown metric"},
        {"{\"seed\": \"abc\"}", "" /* non-numeric */},
        {"{\"samples_per_category\": 0}", "" /* below range */},
        {"{\"batch_width\": 99}", "" /* above range */},
        {"{\"target_half_width\": \"inf\"}", ""},
    };
    for (const auto &[json, needle] : cases) {
        SCOPED_TRACE("request: " + json);
        ServiceRequest req;
        std::string err;
        EXPECT_FALSE(tryParseServiceRequest(json, req, err));
        EXPECT_FALSE(err.empty());
        if (!needle.empty()) {
            EXPECT_NE(err.find(needle), std::string::npos) << err;
        }
    }
}

TEST(ServiceRequestParse, TenantRoundTripsAndStaysOutOfTheHash)
{
    // The tenant is a scheduling label: it must survive the JSON
    // round trip but never perturb the campaign identity two workers
    // agree on (or two tenants submitting the same campaign could
    // not share a single-flight execution).
    ServiceRequest in;
    in.samplesPerCategory = 4;
    in.shardGrain = 2;
    in.tenant = "team-a_7";
    const std::string json = serviceRequestJson(in);
    EXPECT_NE(json.find("\"tenant\": \"team-a_7\""),
              std::string::npos)
        << json;
    ServiceRequest out;
    std::string err;
    ASSERT_TRUE(tryParseServiceRequest(json, out, err)) << err;
    EXPECT_EQ(out.tenant, "team-a_7");

    ServiceRequest plain = in;
    plain.tenant.clear();
    // An empty tenant renders no key at all: pre-tenant request JSON
    // and its parse/render closure stay byte-for-byte unchanged.
    EXPECT_EQ(serviceRequestJson(plain).find("tenant"),
              std::string::npos);

    Network net = buildServiceNetwork(plain);
    Tensor x = serviceInput(plain);
    EXPECT_EQ(campaignConfigHash(net, x, campaignConfigFor(in)),
              campaignConfigHash(net, x, campaignConfigFor(plain)));
}

TEST(ServiceRequestParse, HostileTenantNamesAreRejected)
{
    const std::vector<std::string> hostile = {
        "has space", "dot.dot", "slash/", "a\"quote",
        std::string(65, 'a')};
    for (const std::string &tenant : hostile) {
        SCOPED_TRACE("tenant: " + tenant);
        ServiceRequest in;
        in.tenant = tenant;
        ServiceRequest out;
        std::string err;
        EXPECT_FALSE(
            tryParseServiceRequest(serviceRequestJson(in), out, err));
        EXPECT_NE(err.find("tenant"), std::string::npos) << err;
    }
}

TEST(ServiceProto, TypedErrorFramesCarryAMachineReadableStatus)
{
    // Policy rejections (queue full, draining) must be telling a
    // client something it can act on — distinguishable from free-text
    // diagnostics without string matching on prose.
    std::string text, err, code;
    ASSERT_TRUE(tryParseText(decodeOne(encodeBusyError(8, 8)),
                             FrameType::Error, text, err))
        << err;
    ASSERT_TRUE(typedErrorStatus(text, code)) << text;
    EXPECT_EQ(code, "busy");
    EXPECT_NE(text.find("\"queue_depth\": 8"), std::string::npos)
        << text;
    EXPECT_NE(text.find("\"max_queue\": 8"), std::string::npos)
        << text;

    ASSERT_TRUE(tryParseText(decodeOne(encodeDrainingError()),
                             FrameType::Error, text, err))
        << err;
    ASSERT_TRUE(typedErrorStatus(text, code));
    EXPECT_EQ(code, "draining");

    // Prose diagnostics are not typed errors.
    EXPECT_FALSE(typedErrorStatus("unknown network \"vgg9000\"", code));
    EXPECT_FALSE(typedErrorStatus("{\"other\": \"json\"}", code));
}

TEST(FatalCapture, CaptureTurnsFatalIntoAThrownDiagnostic)
{
    // The daemon's request-isolation seam: under a ScopedFatalCapture
    // a fatal() becomes a catchable FatalError on the same thread...
    bool threw = false;
    try {
        ScopedFatalCapture capture;
        fatal("checkpoint ", 7, " is corrupt");
    } catch (const FatalError &e) {
        threw = true;
        EXPECT_STREQ(e.what(), "checkpoint 7 is corrupt");
    }
    EXPECT_TRUE(threw);

    // ...and only on that thread: a capture here must not change what
    // fatal() means on a concurrently running worker thread.
    ScopedFatalCapture capture;
    std::thread([] {
        EXPECT_FALSE(ScopedFatalCapture::active());
    }).join();

    // Nested captures stay armed until the outermost one leaves.
    {
        ScopedFatalCapture inner;
        EXPECT_TRUE(ScopedFatalCapture::active());
    }
    EXPECT_TRUE(ScopedFatalCapture::active());
}

TEST(FatalCapture, UncapturedFatalStillDies)
{
    EXPECT_DEATH(fatal("boom"), "boom");
}

TEST(ServiceRequestParse, IdentityKnobsSeparateConfigHashes)
{
    // The READY handshake rejects a worker whose recomputed hash
    // differs from the coordinator's: this is the predicate behind it.
    ServiceRequest base;
    base.samplesPerCategory = 4;
    base.shardGrain = 2;
    Network net = buildServiceNetwork(base);
    Tensor x = serviceInput(base);
    const std::uint64_t h =
        campaignConfigHash(net, x, campaignConfigFor(base));

    ServiceRequest seed = base;
    seed.seed += 1;
    EXPECT_NE(campaignConfigHash(net, x, campaignConfigFor(seed)), h);

    ServiceRequest grain = base;
    grain.shardGrain += 1;
    EXPECT_NE(campaignConfigHash(net, x, campaignConfigFor(grain)), h);

    // Performance knobs keep the identity — a 4-thread worker and a
    // 1-thread worker agree on what campaign they are running.
    ServiceRequest perf = base;
    perf.threads = 4;
    perf.batchWidth = 1;
    EXPECT_EQ(campaignConfigHash(net, x, campaignConfigFor(perf)), h);
}

TEST(ServiceShardPlan, AdaptiveCampaignsHaveNoStaticPlan)
{
    ServiceRequest req;
    req.targetHalfWidth = 0.05;
    Network net = buildServiceNetwork(req);
    EXPECT_DEATH(
        (void)fixedShardPlan(net, campaignConfigFor(req)),
        "no static shard plan");
}

TEST(ServiceShardPlan, WorkerRangeExecutionMatchesInProcessStreams)
{
    // The distributed contract in miniature, no sockets: an executor
    // working through out-of-order ranges must journal exactly the
    // records the in-process run checkpoints, field by field, and
    // resuming from the union must reproduce the uninterrupted run.
    // The same split under every engine / cache / backend knob is
    // test_bit_identity's executor axis.
    ServiceRequest req;
    req.samplesPerCategory = 8;
    req.shardGrain = 4;
    req.seed = 7;
    Network net = buildServiceNetwork(req);
    Tensor x = serviceInput(req);
    CorrectnessFn metric = serviceMetric(req);
    ScopedPath ckpt("range.ckpt");
    const CampaignConfig cfg = campaignConfigFor(req);

    CampaignConfig whole_cfg = cfg;
    whole_cfg.checkpointPath = ckpt.str();
    const CampaignResult whole = runCampaign(net, x, metric, whole_cfg);
    const std::vector<ShardRecord> journal =
        readSnapshot(ckpt.str()).shards;

    FixedShardExecutor executor(net, x, metric, cfg);
    const std::uint64_t total = executor.planSize();
    ASSERT_EQ(journal.size(), total);
    ASSERT_GE(total, 3u);
    const std::uint64_t a = total / 3;
    const std::uint64_t b = 2 * total / 3;
    std::vector<ShardRecord> records = executor.execute(b, total - b);
    for (ShardRecord &r : executor.execute(0, a))
        records.push_back(std::move(r));
    for (ShardRecord &r : executor.execute(a, b - a))
        records.push_back(std::move(r));
    std::sort(records.begin(), records.end(),
              [](const ShardRecord &l, const ShardRecord &r) {
                  return l.ordinal < r.ordinal;
              });
    expectSameRecords(records, journal);

    auto snap = std::make_shared<CampaignSnapshot>();
    snap->configHash = campaignConfigHash(net, x, cfg);
    snap->shards = std::move(records);
    CampaignConfig merge = cfg;
    merge.resumeSnapshot = snap;
    const CampaignResult merged = runCampaign(net, x, metric, merge);
    EXPECT_TRUE(merged.complete);
    EXPECT_EQ(campaignChecksum(merged), campaignChecksum(whole));
    EXPECT_EQ(merged.totalInjections, whole.totalInjections);
}

TEST(ServiceShardPlan, ReusedExecutorMatchesFreshCallsLeaseByLease)
{
    // The worker holds one FixedShardExecutor across every lease it
    // drains, so the golden forward pass / cache / engines are paid
    // once.  All of that is performance state: each lease's records
    // must be byte-identical to a fresh executor's over the same
    // range, in any lease order.
    ServiceRequest req;
    req.samplesPerCategory = 8;
    req.shardGrain = 4;
    req.seed = 11;
    Network net = buildServiceNetwork(req);
    Tensor x = serviceInput(req);
    CorrectnessFn metric = serviceMetric(req);
    CampaignConfig cfg = campaignConfigFor(req);

    FixedShardExecutor executor(net, x, metric, cfg);
    const std::uint64_t total = executor.planSize();
    ASSERT_EQ(total, fixedShardPlan(net, cfg).size());
    ASSERT_GE(total, 4u);

    // Out-of-order leases, including a re-execution of lease 0 after
    // the engines have churned through the rest of the plan.
    const std::uint64_t chunk = 2;
    std::vector<std::uint64_t> firsts;
    for (std::uint64_t f = 0; f < total; f += chunk)
        firsts.push_back(f);
    std::reverse(firsts.begin(), firsts.end());
    firsts.push_back(0);
    for (std::uint64_t f : firsts) {
        const std::uint64_t n = std::min(chunk, total - f);
        SCOPED_TRACE("lease at " + std::to_string(f));
        expectSameRecords(
            executor.execute(f, n),
            FixedShardExecutor(net, x, metric, cfg).execute(f, n));
    }
}

TEST(ServiceShardPlan, OutOfRangeLeaseIsFatal)
{
    ServiceRequest req;
    req.samplesPerCategory = 4;
    req.shardGrain = 4;
    Network net = buildServiceNetwork(req);
    Tensor x = serviceInput(req);
    CampaignConfig cfg = campaignConfigFor(req);
    const std::size_t shards = fixedShardPlan(net, cfg).size();
    FixedShardExecutor executor(net, x, serviceMetric(req), cfg);
    EXPECT_DEATH((void)executor.execute(shards, 1),
                 "exceeds the .*-shard plan");
}
