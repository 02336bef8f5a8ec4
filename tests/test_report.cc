/**
 * @file
 * Tests for the consolidated SessionReport and the report exporters:
 * golden-JSON pin of the Fig 9 latency breakdown (Resnet-50, 32
 * accelerators, baseline), bit-identical throughput with metrics on vs
 * off, a report left intact by a server built beside it mid-run,
 * bottleneck attribution on the paper presets, exporter
 * well-formedness, CSV rows carrying the JSON's values for hand-filled
 * session and fleet reports, and string escaping in both formats.
 */

#include <gtest/gtest.h>

#include "common/escape.hh"
#include "sim/trace.hh"
#include "trainbox/fleet.hh"
#include "trainbox/report.hh"
#include "trainbox/server_builder.hh"
#include "trainbox/training_session.hh"

namespace tb {
namespace {

using CsvRows = std::vector<std::vector<std::string>>;

/** Parse RFC 4180 CSV; a quoted field may hold ',', '"' and newlines. */
CsvRows
parseCsv(const std::string &text)
{
    CsvRows rows(1);
    std::string field;
    bool quoted = false;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (quoted && c == '"' && i + 1 < text.size() && text[i + 1] == '"')
            field += text[i++];
        else if (c == '"')
            quoted = !quoted;
        else if (quoted || (c != ',' && c != '\n'))
            field += c;
        else {
            rows.back().push_back(std::move(field));
            field.clear();
            if (c == '\n')
                rows.emplace_back();
        }
    }
    EXPECT_FALSE(quoted) << "unterminated quoted field";
    EXPECT_TRUE(field.empty() && rows.back().empty())
        << "CSV does not end with a newline";
    rows.pop_back();
    return rows;
}

/** Every row is the header or a (section, key, value) triple. */
void
expectThreeFieldRows(const std::string &csv)
{
    const CsvRows rows = parseCsv(csv);
    ASSERT_FALSE(rows.empty());
    EXPECT_EQ(rows[0], (std::vector<std::string>{"section", "key", "value"}));
    for (const std::vector<std::string> &row : rows)
        EXPECT_EQ(row.size(), 3u) << csv;
}

/** The value text after "key": in @p json, searching from @p after. */
std::string
jsonValue(const std::string &json, const std::string &after,
          const std::string &key)
{
    std::size_t at = json.find(after);
    if (at == std::string::npos)
        return "<no " + after + ">";
    at = json.find("\"" + key + "\": ", at);
    if (at == std::string::npos)
        return "<no " + key + ">";
    at += key.size() + 4;
    return json.substr(at, json.find_first_of(",}]\n", at) - at);
}

/** True when @p csv holds the row section,key,value exactly. */
bool
hasRow(const std::string &csv, const std::string &section,
       const std::string &key, const std::string &value)
{
    for (const std::vector<std::string> &row : parseCsv(csv))
        if (row == std::vector<std::string>{section, key, value})
            return true;
    return false;
}

SessionReport
runReport(ServerConfig cfg)
{
    auto server = buildServer(cfg);
    TrainingSession session(*server);
    return session.runReport(4, 8);
}

// Pinned by tests/test_checkpoint.cc for the metrics-off path; the
// instrumentation must not move it when enabled either.
constexpr double kBaseline32Throughput = 30412.537359822836;

TEST(SessionReport, MetricsDoNotPerturbThroughput)
{
    const SessionReport off = runReport(
        ServerConfig::baseline().withAccelerators(32));
    const SessionReport on = runReport(
        ServerConfig::baseline().withAccelerators(32).withMetrics());
    EXPECT_DOUBLE_EQ(off.throughput(), kBaseline32Throughput);
    EXPECT_DOUBLE_EQ(on.throughput(), kBaseline32Throughput);
    EXPECT_DOUBLE_EQ(on.stepTime(), off.stepTime());
    EXPECT_DOUBLE_EQ(on.prepLatency(), off.prepLatency());
    EXPECT_FALSE(off.hasMetrics);
    EXPECT_TRUE(on.hasMetrics);
}

// Every server built on a shared core attaches the core's registry
// again. Building one while another runs must leave the running
// server's utilization histories whole: its report reads exactly as it
// does when the server runs alone.
TEST(SessionReport, ServerBuiltMidRunLeavesCoResidentReportIntact)
{
    const ServerConfig cfg =
        ServerConfig::trainBox().withAccelerators(16).withMetrics();
    const SessionReport solo = runReport(cfg);

    SimulationCore core;
    auto first = buildServer(cfg, &core, "a.");
    TrainingSession session(*first);
    session.start(4, 8);
    EventQueue &eq = core.events();
    while (session.stepsSynced() < 6 && eq.step()) {
    }
    ASSERT_EQ(session.stepsSynced(), 6u);
    auto second = buildServer(cfg, &core, "b.");
    while (!session.done() && eq.step()) {
    }
    ASSERT_TRUE(session.done());
    const SessionReport shared =
        SessionReport::build(*first, session.collect());

    ASSERT_EQ(shared.resources.size(), solo.resources.size());
    for (std::size_t i = 0; i < solo.resources.size(); ++i) {
        const ResourceUsage &got = shared.resources[i];
        const ResourceUsage &want = solo.resources[i];
        SCOPED_TRACE(want.name);
        EXPECT_EQ(got.name, want.name);
        EXPECT_EQ(got.utilization, want.utilization);
        EXPECT_EQ(got.peak, want.peak);
        EXPECT_EQ(got.saturatedFraction, want.saturatedFraction);
        EXPECT_EQ(got.dominantCategory, want.dominantCategory);
        EXPECT_EQ(got.dominantShare, want.dominantShare);
    }
}

TEST(SessionReport, GoldenFig9BreakdownResnet50At32)
{
    const SessionReport r = runReport(
        ServerConfig::baseline().withAccelerators(32).withMetrics());
    ASSERT_EQ(r.model, "Resnet-50");
    ASSERT_EQ(r.preset, "Baseline");

    // The Fig 9 decomposition, pinned at the JSON exporter's fixed
    // precision so any drift in the breakdown (or the exporter) fails.
    const std::string json = r.toJson();
    EXPECT_NE(json.find("\"latency_breakdown_pct\": "
                        "{\"transfer\": 11.6275, "
                        "\"formatting\": 56.4630, "
                        "\"augmentation\": 28.7516, "
                        "\"compute\": 3.1542, "
                        "\"sync\": 0.0037, "
                        "\"prep_total\": 96.8421}"),
              std::string::npos)
        << json;

    const SessionReport::LatencyBreakdown lat = r.latency();
    EXPECT_NEAR(lat.prepShare(), 0.968421, 1e-6);
    EXPECT_DOUBLE_EQ(lat.total(),
                     lat.transfer + lat.formatting + lat.augmentation +
                         lat.compute + lat.sync);
}

TEST(SessionReport, BaselineBottleneckIsHostCpu)
{
    const SessionReport r = runReport(
        ServerConfig::baseline().withAccelerators(32).withMetrics());
    const std::vector<Bottleneck> ranked = r.bottlenecks();
    ASSERT_FALSE(ranked.empty());
    EXPECT_EQ(ranked[0].kind, "cpu");
    EXPECT_EQ(ranked[0].resource, "host.cpu");
    EXPECT_GT(ranked[0].utilization, 0.99);
    EXPECT_GT(ranked[0].saturatedFraction, 0.9);
    // The baseline's CPU burns in formatting (Fig 11a).
    EXPECT_EQ(ranked[0].dominantCategory, "formatting");
}

TEST(SessionReport, TrainBoxBottleneckIsTheAccelerator)
{
    const SessionReport r = runReport(
        ServerConfig::trainBox().withAccelerators(32).withMetrics());
    const std::vector<Bottleneck> ranked = r.bottlenecks();
    ASSERT_FALSE(ranked.empty());
    // TrainBox reaches the target: compute itself is the bottleneck.
    EXPECT_EQ(ranked[0].kind, "accelerator");
    EXPECT_GT(ranked[0].utilization, 0.99);
    EXPECT_NEAR(r.targetFraction(), 1.0, 1e-3);

    // Host axes are nearly idle (the point of the design).
    for (const Bottleneck &b : ranked) {
        if (b.kind == "cpu") {
            EXPECT_LT(b.utilization, 0.2);
        }
    }
}

TEST(SessionReport, MetricsOffFallsBackToHostAxes)
{
    const SessionReport r =
        runReport(ServerConfig::baseline().withAccelerators(32));
    EXPECT_FALSE(r.hasMetrics);
    EXPECT_TRUE(r.resources.empty());
    const std::vector<Bottleneck> ranked = r.bottlenecks();
    ASSERT_EQ(ranked.size(), 3u);
    // Axes are normalized demand/capacity: the baseline's 48 CPU cores
    // run flat out, so the CPU leads the fallback ranking too.
    EXPECT_EQ(ranked[0].kind, "cpu");
    EXPECT_GT(ranked[0].utilization, 0.99);
    EXPECT_EQ(ranked[0].dominantCategory, "formatting");
}

TEST(SessionReport, UtilizationCoversEveryDeviceClass)
{
    const SessionReport r = runReport(
        ServerConfig::trainBox().withAccelerators(32).withMetrics());
    ASSERT_FALSE(r.resources.empty());

    auto has_kind = [&r](const std::string &kind) {
        for (const ResourceUsage &u : r.resources)
            if (u.kind == kind)
                return true;
        return false;
    };
    EXPECT_TRUE(has_kind("cpu"));
    EXPECT_TRUE(has_kind("dram"));
    EXPECT_TRUE(has_kind("root_complex"));
    EXPECT_TRUE(has_kind("ssd_read"));
    EXPECT_TRUE(has_kind("prep_engine"));
    EXPECT_TRUE(has_kind("pcie_link"));
    EXPECT_TRUE(has_kind("accelerator"));

    for (const ResourceUsage &u : r.resources) {
        EXPECT_GE(u.utilization, 0.0) << u.name;
        EXPECT_LE(u.utilization, 1.0 + 1e-9) << u.name;
        EXPECT_GE(u.peak, u.utilization - 1e-9) << u.name;
    }
}

TEST(SessionReport, ClassifyResourceNames)
{
    EXPECT_EQ(classifyResource("host.cpu"), "cpu");
    EXPECT_EQ(classifyResource("host.dram"), "dram");
    EXPECT_EQ(classifyResource("pcie.rc"), "root_complex");
    EXPECT_EQ(classifyResource("tbox0.ssd1.flash"), "ssd_read");
    EXPECT_EQ(classifyResource("tbox0.ssd1.write"), "ssd_write");
    EXPECT_EQ(classifyResource("tbox0.fpga0.engine"), "prep_engine");
    EXPECT_EQ(classifyResource("pool.fpga3.engine"), "pool_engine");
    EXPECT_EQ(classifyResource("tbox0.fpga0.eth"), "ethernet");
    EXPECT_EQ(classifyResource("accbox0.down"), "pcie_link");
    EXPECT_EQ(classifyResource("tbox0.fpga0.up"), "pcie_link");
    EXPECT_EQ(classifyResource("something.else"), "other");
}

TEST(SessionReport, ExportersAreWellFormed)
{
    const SessionReport r = runReport(
        ServerConfig::baseline().withAccelerators(32).withMetrics());

    const std::string json = r.toJson();
    EXPECT_EQ(json.front(), '{');
    EXPECT_NE(json.find("\"bottlenecks\""), std::string::npos);
    EXPECT_NE(json.find("\"utilization\""), std::string::npos);
    EXPECT_NE(json.find("\"has_metrics\": true"), std::string::npos);

    const std::string csv = r.toCsv();
    EXPECT_EQ(csv.rfind("section,key,value\n", 0), 0u);
    EXPECT_NE(csv.find("config,preset,Baseline"), std::string::npos);
    EXPECT_NE(csv.find("latency_pct,prep_total,96.8421"),
              std::string::npos);
    expectThreeFieldRows(csv);

    TraceWriter trace;
    r.emitCounters(trace);
    EXPECT_GT(trace.numEvents(), 0u);
}

/** A session report with a distinct non-zero value in every field. */
SessionReport
handFilledSessionReport()
{
    SessionReport r;
    r.preset = "TrainBox";
    r.model = "Resnet-50";
    r.numAccelerators = 24;
    r.batchSize = 96;
    r.targetThroughput = 2000.0;
    SessionResult &res = r.result;
    res.throughput = 1500.0;
    res.stepTime = 0.25;
    res.computeTime = 0.125;
    res.syncTime = 0.0625;
    res.prepLatency = 0.5;
    res.wallTime = 40.0;
    res.stepsMeasured = 17;
    res.prepStageTime = {{"ssd_read", 0.03}, {"formatting", 0.04}};
    res.cpuCoresByCategory = {{"formatting", 5.0}};
    res.memBwByCategory = {{"data_load", 6.0}};
    res.rcBwByCategory = {{"ssd_read", 7.0}};
    res.faults.faultsInjected = 19;
    res.faults.degradedTime = 4.0;
    res.checkpoint.committed = 23;
    res.checkpoint.stepsLost = 29;
    res.checkpoint.pauseTime = 2.0;
    SessionResult::ElasticityStats &el = res.elasticity;
    el.events = 31;
    el.drains = 37;
    el.preemptions = 41;
    el.joins = 43;
    el.chainsRebalanced = 47;
    el.samplesLostToPreemption = 53.0;
    el.samplesSavedByDrain = 59.0;
    el.samplesDroppedAtDrain = 61.0;
    el.degradedCapacityTime = 8.0;
    el.zeroCapacityTime = 0.75;
    el.rebalanceTime = 0.375;
    el.avgActiveFraction = 0.875;
    el.sloTargetSamplesPerSec = 1800.0;
    el.samplesPrepared = 67.0;
    el.samplesConsumed = 71.0;
    el.samplesCachedAtEnd = 73.0;
    el.samplesDiscarded = 79.0;
    SessionResult::IngestStats &in = res.ingest;
    in.arrivalEvents = 83;
    in.overloadTrips = 89;
    in.stalls = 97;
    in.writeFlows = 101;
    in.writeRetries = 103;
    in.writeFailures = 107;
    in.samplesArrived = 1000.0;
    in.samplesAdmitted = 800.0;
    in.samplesShed = 150.0;
    in.samplesThrottled = 109.0;
    in.samplesShedPolicy = 113.0;
    in.samplesOverflowDropped = 127.0;
    in.samplesAbandonedWrites = 131.0;
    in.samplesInFlightAtEnd = 137.0;
    in.samplesEchoed = 139.0;
    in.overloadTime = 1.5;
    in.stallTime = 2.5;
    in.peakBufferLevel = 149.0;
    in.stalenessSum = 40.0;
    in.stalenessMax = 0.3;
    in.samplesWithinSlo = 600.0;
    in.stalenessSloSec = 0.2;
    in.echoEfficiency = 0.5;
    SessionResult::IntegrityStats &integ = res.integrity;
    integ.injected = 151;
    integ.detected = 100;
    integ.escaped = 51;
    integ.pcieReplays = 157;
    integ.recoveries = 163;
    integ.chunksQuarantined = 167;
    integ.injectedByKind = {173, 179, 181, 191};
    r.attachPrepQuarantine(193, {{"checksum_mismatch", 197}});
    return r;
}

TEST(SessionReport, CsvRowsCarryTheJsonValues)
{
    const SessionReport r = handFilledSessionReport();
    const std::string json = r.toJson();
    const std::string csv = r.toCsv();
    expectThreeFieldRows(csv);

    // The rows the CSV used to lack, each with its JSON value's text.
    const struct
    {
        const char *block, *section, *key, *value;
    } rows[] = {
        {"\"throughput\"", "throughput", "steps_measured", "17"},
        {"\"throughput\"", "throughput", "target_fraction", "0.75"},
        {"\"robustness\"", "robustness", "faults_injected", "19"},
        {"\"robustness\"", "robustness", "checkpoints_committed", "23"},
        {"\"robustness\"", "robustness", "steps_lost", "29"},
        {"\"ingest\"", "ingest", "staleness_slo_sec", "0.2"},
        {"\"by_kind\"", "integrity_by_kind", "ssd_bit_flip", "173"},
        {"\"by_kind\"", "integrity_by_kind", "pcie_link_error", "179"},
        {"\"by_kind\"", "integrity_by_kind", "fpga_upset", "181"},
        {"\"by_kind\"", "integrity_by_kind", "host_dram_flip", "191"},
    };
    for (const auto &row : rows) {
        EXPECT_EQ(jsonValue(json, row.block, row.key), row.value) << json;
        EXPECT_TRUE(hasRow(csv, row.section, row.key, row.value))
            << row.section << "," << row.key << "," << row.value << "\n"
            << csv;
    }

    // Rows the CSV already had keep their sections and values.
    EXPECT_TRUE(hasRow(csv, "host_demand", "cpu_cores", "5"));
    EXPECT_TRUE(hasRow(csv, "cpu_by_category", "formatting", "5"));
    EXPECT_TRUE(hasRow(csv, "sample_ledger", "discarded", "79"));
    EXPECT_TRUE(hasRow(csv, "ingest_ledger", "in_flight_at_end", "137"));
    EXPECT_TRUE(hasRow(csv, "prep_quarantine_by_reason",
                       "checksum_mismatch", "197"));
    EXPECT_TRUE(hasRow(csv, "bottleneck", "1:root_complex", "7"));
    EXPECT_EQ(jsonValue(json, "\"has_metrics\"", "has_metrics"), "false");
    EXPECT_TRUE(hasRow(csv, "session", "has_metrics", "0"));
}

/** A fleet report with a distinct non-zero value in every field. */
FleetReport
handFilledFleetReport(const std::string &job_name)
{
    FleetReport r;
    r.policy = "packed";
    r.jobsTotal = 3;
    r.jobsCompleted = 2;
    r.makespan = 12.5;
    r.aggregateThroughput = 4321.0;
    r.avgQueueingDelay = 0.25;
    r.maxQueueingDelay = 0.75;
    r.jobsQueued = 5;
    r.poolFpgasTotal = 6;
    r.poolFpgasRequestedTotal = 7;
    r.poolFpgasGrantedTotal = 8;
    r.jobsPoolConstrained = 9;
    r.poolFairness = 0.5;
    r.stragglerRatio = 1.25;
    r.preemptions = 10;
    r.faultsInjected = 11;
    r.eventsExecuted = 12345;
    r.jobsAbandoned = 13;
    r.jobsRunningAtHorizon = 14;
    r.jobsQueuedAtHorizon = 15;
    r.restartsTotal = 16;
    r.stepsLostTotal = 17;
    r.workLostTime = 1.5;
    r.avgReplacementLatency = 2.5;
    r.maxReplacementLatency = 3.5;
    r.fleetFaultsInjected = 18;
    r.hostDownTime = 4.5;
    r.retryHistogram = {19, 20, 21};

    FleetJobResult j;
    j.job = job_name;
    j.host = "hostA";
    j.priority = 22;
    j.arrival = 0.125;
    j.started = 0.375;
    j.finished = 9.625;
    j.queueingDelay = 0.25;
    j.boxesUsed = 23;
    j.poolFpgasRequested = 24;
    j.poolFpgasGranted = 25;
    j.poolConstrained = true;
    j.admitted = true;
    j.completed = true;
    j.state = FleetJobState::Completed;
    j.restarts = 26;
    j.stepsLost = 27;
    j.workLost = 5.5;
    j.replacementLatency = 6.5;
    j.report.result.throughput = 789.0;
    j.report.result.wallTime = 9.25;
    r.jobs.push_back(j);
    return r;
}

TEST(FleetReportExport, CsvRowsCarryTheJsonValues)
{
    const FleetReport r = handFilledFleetReport("vision0");
    const std::string json = r.toJson();
    const std::string csv = r.toCsv();
    expectThreeFieldRows(csv);

    const struct
    {
        const char *key, *value;
    } fleet_rows[] = {
        {"jobs_queued", "5"},
        {"jobs_pool_constrained", "9"},
        {"faults_injected", "11"},
    };
    for (const auto &row : fleet_rows) {
        EXPECT_EQ(jsonValue(json, "\"policy\"", row.key), row.value);
        EXPECT_TRUE(hasRow(csv, "fleet", row.key, row.value)) << csv;
    }
    EXPECT_NE(json.find("\"retry_histogram\": [19, 20, 21]"),
              std::string::npos)
        << json;
    EXPECT_TRUE(hasRow(csv, "retry_histogram", "0", "19")) << csv;
    EXPECT_TRUE(hasRow(csv, "retry_histogram", "1", "20")) << csv;
    EXPECT_TRUE(hasRow(csv, "retry_histogram", "2", "21")) << csv;

    const struct
    {
        const char *key, *json, *csv;
    } job_rows[] = {
        {"priority", "22", "22"},
        {"started_s", "0.375000", "0.375000"},
        {"finished_s", "9.625000", "9.625000"},
        {"boxes", "23", "23"},
        {"pool_constrained", "true", "1"},
        {"admitted", "true", "1"},
        {"steps_lost", "27", "27"},
        {"work_lost_s", "5.500000", "5.500000"},
        {"replacement_latency_s", "6.500000", "6.500000"},
    };
    for (const auto &row : job_rows) {
        EXPECT_EQ(jsonValue(json, "\"name\": \"vision0\"", row.key),
                  row.json);
        EXPECT_TRUE(hasRow(csv, "job.vision0", row.key, row.csv))
            << row.key << "\n" << csv;
    }
    // Rows the CSV already had keep their text.
    EXPECT_TRUE(hasRow(csv, "job.vision0", "completed", "1"));
    EXPECT_TRUE(hasRow(csv, "job.vision0", "throughput", "789.000000"));
    EXPECT_TRUE(hasRow(csv, "fleet", "events_executed", "12345"));
}

TEST(FleetReportExport, NamesWithSeparatorsAndControlCharacters)
{
    const std::string name = "a,b\"c\\d\te\nf";
    FleetReport r = handFilledFleetReport(name);
    r.jobs[0].host = "host\x01";

    const std::string json = r.toJson();
    EXPECT_NE(json.find("\"name\": \"a,b\\\"c\\\\d\\te\\nf\""),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"host\": \"host\\u0001\""), std::string::npos)
        << json;
    // No raw control byte is left besides the layout's line breaks.
    for (char c : json)
        EXPECT_TRUE(c == '\n' || static_cast<unsigned char>(c) >= 0x20)
            << json;

    const std::string csv = r.toCsv();
    expectThreeFieldRows(csv);
    EXPECT_TRUE(hasRow(csv, "job." + name, "host", "host\x01")) << csv;
    EXPECT_TRUE(hasRow(csv, "job." + name, "state", "completed")) << csv;
}

TEST(ReportNode, RendersLayoutRulesAndCsvRoutes)
{
    using F = ReportNode::Format;
    ReportNode root("top");
    root.num("n", 1.5)
        .object("inline", "in")
        .num("pct", 0.25, F::Percent)
        .num("count", 7, F::Integer)
        .flag("ok", true);
    ReportNode &axes = root.object("axes", "");
    axes.object("x", "").num("total", 2).csvAs("axes", "x");
    root.array("empty", "");
    ReportNode &list = root.array("list", "list");
    list.num("0", 4, F::Integer).num("1", 5, F::Integer);
    ReportNode &records = root.array("records", "");
    records.object("", "")
        .text("name", "r0").csvAs("", "")
        .num("v", 3, F::Fixed).csvAs("v", "r0");

    EXPECT_EQ(renderJson(root),
              "{\n"
              "  \"n\": 1.5,\n"
              "  \"inline\": {\"pct\": 25.0000, \"count\": 7, \"ok\": true},\n"
              "  \"axes\": {\n"
              "    \"x\": {\"total\": 2}\n"
              "  },\n"
              "  \"empty\": [],\n"
              "  \"list\": [4, 5],\n"
              "  \"records\": [\n"
              "    {\"name\": \"r0\", \"v\": 3.000000}\n"
              "  ]\n"
              "}\n");
    EXPECT_EQ(renderCsv(root),
              "section,key,value\n"
              "top,n,1.5\n"
              "in,pct,25.0000\n"
              "in,count,7\n"
              "in,ok,1\n"
              "axes,x,2\n"
              "list,0,4\n"
              "list,1,5\n"
              "v,r0,3.000000\n");
}

TEST(ReportEscaping, JsonAndCsvEscapers)
{
    std::string json;
    appendJsonString(json, std::string("q\" b\\ n\n t\t r\r z\0!", 18));
    EXPECT_EQ(json, "\"q\\\" b\\\\ n\\n t\\t r\\u000d z\\u0000!\"");

    std::string csv;
    appendCsvField(csv, "plain");
    csv += ',';
    appendCsvField(csv, "a,b");
    csv += ',';
    appendCsvField(csv, "say \"hi\"");
    csv += ',';
    appendCsvField(csv, "two\nlines");
    EXPECT_EQ(csv, "plain,\"a,b\",\"say \"\"hi\"\"\",\"two\nlines\"");
}

TEST(SessionReport, FluentConfigMatchesFieldAssignment)
{
    ServerConfig fields;
    fields.preset = ArchPreset::BaselineAccP2p;
    fields.model = workload::ModelId::Vgg19;
    fields.numAccelerators = 64;
    fields.batchSize = 128;
    fields.prefetchDepth = 3;
    fields.metricsEnabled = true;

    const ServerConfig fluent = ServerConfig::p2p()
                                    .withModel("VGG-19")
                                    .withAccelerators(64)
                                    .withBatchSize(128)
                                    .withPrefetchDepth(3)
                                    .withMetrics();
    EXPECT_EQ(fluent.preset, fields.preset);
    EXPECT_EQ(fluent.model, fields.model);
    EXPECT_EQ(fluent.numAccelerators, fields.numAccelerators);
    EXPECT_EQ(fluent.batchSize, fields.batchSize);
    EXPECT_EQ(fluent.prefetchDepth, fields.prefetchDepth);
    EXPECT_EQ(fluent.metricsEnabled, fields.metricsEnabled);
    EXPECT_TRUE(fluent.validate().empty());
}

} // namespace
} // namespace tb
