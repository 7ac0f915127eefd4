/**
 * @file
 * smtstore: serve a result-store directory over HTTP so distributed
 * sweep workers on other machines can share it by URL.
 *
 *   smtstore --dir DIR [--bind ADDR] [--port N] [--token-file P]
 *       serve DIR (created if needed) on http://ADDR:N; every sweep
 *       tool then accepts the URL wherever it accepts --cache-dir
 *       (e.g. `smtsweep --store-url http://host:8377 ...`). With a
 *       token (--token-file or $SMTSTORE_TOKEN) every request must
 *       present it as an Authorization bearer — the gate for serving
 *       beyond a trusted network;
 *   smtstore --ping URL
 *       probe a running server (exit 0 when it answers) and print its
 *       advertised capabilities (schema, auth, transfer encodings,
 *       stats route) — CI uses this to wait for startup without
 *       external tools. Pings a token-protected server with the same
 *       token sources;
 *   smtstore --stats URL
 *       fetch the server's live /v1/stats snapshot (request counters,
 *       entry hit ratio, per-route latency histograms) as JSON on
 *       stdout.
 *
 * The wire protocol (digest-keyed entries with content-digest
 * verification on both ends, x-smt-lz transfer compression, bearer
 * auth, markers with TTL leases, claim CAS, manifest) is specified in
 * docs/PROTOCOL.md.
 */

#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "common/parse.hh"
#include "net/http_server.hh"
#include "sweep/remote_store.hh"
#include "sweep/result_store.hh"
#include "sweep/store_service.hh"

namespace
{

volatile sig_atomic_t g_stop = 0;

void
onSignal(int)
{
    g_stop = 1;
}

int
usage(int code)
{
    std::fprintf(
        code == 0 ? stdout : stderr,
        "usage: smtstore --dir DIR [options]\n"
        "       smtstore --ping URL\n"
        "       smtstore --stats URL\n"
        "\n"
        "options:\n"
        "  --dir DIR       store directory to serve (default .smtstore)\n"
        "  --bind ADDR     listen address (default 127.0.0.1; use\n"
        "                  0.0.0.0 for other machines)\n"
        "  --port N        listen port (default 8377; 0 picks an\n"
        "                  ephemeral port, printed on startup)\n"
        "  --token-file P  require `Authorization: Bearer <token>` on\n"
        "                  every request, token = P's first line\n"
        "                  ($SMTSTORE_TOKEN also works; a flag would\n"
        "                  leak the token into ps)\n"
        "  --ping URL      probe a running server, print its advertised\n"
        "                  capabilities, and exit (sends the token from\n"
        "                  the same sources, if any)\n"
        "  --stats URL     print the server's live /v1/stats snapshot\n"
        "                  as JSON on stdout\n"
        "  --access-log F  append one JSON object per request to F\n"
        "                  (ts, route, method, status, bytes, latency,\n"
        "                  trace id) — the server half of a sweep\n"
        "                  profile; feed it to smttrace\n"
        "  --idle-timeout SEC\n"
        "                  reap a connection that has not delivered a\n"
        "                  complete request (or drained a response)\n"
        "                  within SEC seconds — partial bytes do not\n"
        "                  extend the deadline, so slow-loris clients\n"
        "                  die here (default 30; 0 disables)\n"
        "  --max-connections N\n"
        "                  concurrent connection cap; peers beyond it\n"
        "                  are accepted and immediately closed\n"
        "                  (default 1024)\n"
        "  --dispatch-threads N\n"
        "                  handler pool width for blocking work —\n"
        "                  disk I/O, the claim mutex (default 4)\n"
        "  --verbose       log every request (method, path, status,\n"
        "                  bytes, latency, trace id)\n"
        "  --help, -h      print this help\n");
    return code;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace smt;

    std::string dir = ".smtstore";
    std::string bind_addr = "127.0.0.1";
    std::string ping_url;
    std::string stats_url;
    std::string token_file;
    std::string access_log;
    unsigned port = 8377;
    bool verbose = false;
    double idle_timeout = 30.0;
    unsigned long max_connections = 1024;
    unsigned long dispatch_threads = 4;

    auto next_arg = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "smtstore: %s needs a value\n", argv[i]);
            std::exit(usage(2));
        }
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--dir") == 0)
            dir = next_arg(i);
        else if (std::strcmp(arg, "--bind") == 0)
            bind_addr = next_arg(i);
        else if (std::strcmp(arg, "--port") == 0) {
            const char *value = next_arg(i);
            char *end = nullptr;
            const unsigned long n = std::strtoul(value, &end, 10);
            if (end == value || *end != '\0' || n > 65535) {
                std::fprintf(stderr,
                             "smtstore: --port needs 0..65535, got "
                             "\"%s\"\n",
                             value);
                return usage(2);
            }
            port = static_cast<unsigned>(n);
        }
        else if (std::strcmp(arg, "--token-file") == 0)
            token_file = next_arg(i);
        else if (std::strcmp(arg, "--idle-timeout") == 0) {
            const char *value = next_arg(i);
            char *end = nullptr;
            idle_timeout = std::strtod(value, &end);
            if (end == value || *end != '\0' || idle_timeout < 0) {
                std::fprintf(stderr,
                             "smtstore: --idle-timeout needs seconds "
                             ">= 0, got \"%s\"\n",
                             value);
                return usage(2);
            }
        }
        else if (std::strcmp(arg, "--max-connections") == 0) {
            const char *value = next_arg(i);
            char *end = nullptr;
            max_connections = std::strtoul(value, &end, 10);
            if (end == value || *end != '\0' || max_connections == 0) {
                std::fprintf(stderr,
                             "smtstore: --max-connections needs a "
                             "positive count, got \"%s\"\n",
                             value);
                return usage(2);
            }
        }
        else if (std::strcmp(arg, "--dispatch-threads") == 0)
            dispatch_threads = smt::parseCountOrExit(
                "smtstore: --dispatch-threads", next_arg(i), 1,
                smt::kMaxThreadCount);
        else if (std::strcmp(arg, "--access-log") == 0)
            access_log = next_arg(i);
        else if (std::strcmp(arg, "--ping") == 0)
            ping_url = next_arg(i);
        else if (std::strcmp(arg, "--stats") == 0)
            stats_url = next_arg(i);
        else if (std::strcmp(arg, "--verbose") == 0)
            verbose = true;
        else if (std::strcmp(arg, "--help") == 0
                 || std::strcmp(arg, "-h") == 0)
            return usage(0);
        else {
            std::fprintf(stderr, "smtstore: unknown option %s\n", arg);
            return usage(2);
        }
    }

    const std::string token = sweep::resolveStoreToken("", token_file);

    if (!ping_url.empty()) {
        net::Url url;
        if (!net::parseUrl(ping_url, url)) {
            std::fprintf(stderr, "smtstore: malformed URL \"%s\"\n",
                         ping_url.c_str());
            return 2;
        }
        const sweep::RemoteResultStore store(url, token);
        std::string error;
        const std::optional<sweep::Json> doc = store.pingDocument(&error);
        if (!doc.has_value()) {
            std::fprintf(stderr, "smtstore: %s is not answering: %s\n",
                         ping_url.c_str(), error.c_str());
            return 1;
        }
        // Advertised capabilities, so an operator (or CI log reader)
        // sees at a glance what this server speaks. Fields print
        // whatever scalar the server sent (schema is numeric).
        const auto scalar = [&](const char *key) -> std::string {
            if (!doc->has(key))
                return "?";
            const sweep::Json &v = doc->at(key);
            return v.type() == sweep::Json::Type::String ? v.asString()
                                                         : v.dump();
        };
        std::string encodings;
        if (doc->has("encodings")) {
            const sweep::Json &list = doc->at("encodings");
            for (std::size_t i = 0; i < list.size(); ++i) {
                if (!encodings.empty())
                    encodings += ",";
                encodings += list[i].asString();
            }
        }
        std::printf("smtstore at %s is alive (schema %s, auth %s, "
                    "encodings %s, stats %s, trace %s)\n",
                    ping_url.c_str(), scalar("schema").c_str(),
                    scalar("auth").c_str(),
                    encodings.empty() ? "identity" : encodings.c_str(),
                    doc->has("stats") && doc->at("stats").asBool()
                        ? "yes"
                        : "no",
                    doc->has("trace") && doc->at("trace").asBool()
                        ? "yes"
                        : "no");
        return 0;
    }

    if (!stats_url.empty()) {
        net::Url url;
        if (!net::parseUrl(stats_url, url)) {
            std::fprintf(stderr, "smtstore: malformed URL \"%s\"\n",
                         stats_url.c_str());
            return 2;
        }
        const sweep::RemoteResultStore store(url, token);
        std::string error;
        const std::optional<sweep::Json> stats = store.stats(&error);
        if (!stats.has_value()) {
            std::fprintf(stderr, "smtstore: cannot fetch stats from "
                                 "%s: %s\n",
                         stats_url.c_str(), error.c_str());
            return 1;
        }
        std::printf("%s\n", stats->dump(2).c_str());
        return 0;
    }

    sweep::StoreService service(dir, verbose, token);
    if (!access_log.empty()) {
        std::string log_error;
        if (!service.setAccessLog(access_log, &log_error)) {
            std::fprintf(stderr, "smtstore: %s\n", log_error.c_str());
            return 1;
        }
    }
    net::HttpServer server;
    // One registry for both layers: the transport counters the server
    // maintains and the per-route counters the service maintains all
    // surface through the same /v1/stats snapshot.
    server.setMetrics(&service.metrics());
    server.setIdleTimeout(idle_timeout);
    server.setMaxConnections(max_connections);
    server.setDispatchThreads(dispatch_threads);
    std::string error;
    if (!server.start(bind_addr, static_cast<std::uint16_t>(port),
                      [&service](const net::HttpRequest &req) {
                          return service.handle(req);
                      },
                      &error)) {
        std::fprintf(stderr, "smtstore: %s\n", error.c_str());
        return 1;
    }

    std::printf("smtstore: serving %s on http://%s:%u%s\n",
                service.dir().c_str(), bind_addr.c_str(),
                static_cast<unsigned>(server.port()),
                service.requiresAuth() ? " (bearer auth required)"
                                       : "");
    std::fflush(stdout);

    // Block the shutdown signals, then wait with sigsuspend: the
    // check-then-wait is atomic, so a signal landing between the test
    // and the wait cannot be lost (the classic pause() race).
    struct sigaction sa = {};
    sa.sa_handler = onSignal;
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
    sigset_t block, old;
    ::sigemptyset(&block);
    ::sigaddset(&block, SIGINT);
    ::sigaddset(&block, SIGTERM);
    ::sigprocmask(SIG_BLOCK, &block, &old);
    while (g_stop == 0)
        ::sigsuspend(&old);
    ::sigprocmask(SIG_SETMASK, &old, nullptr);

    std::printf("smtstore: shutting down\n");
    server.stop();
    return 0;
}
