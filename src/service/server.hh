/**
 * @file
 * jitschedd's serving core: a loopback TCP front end over the
 * admission queue.
 *
 * Thread shape: one acceptor thread accepts connections and hands
 * the fds to a fixed pool of connection handlers.  A handler reads
 * one request frame at a time (everything up to an `end` line),
 * parses it with the non-fatal protocol path, and either answers a
 * parse error immediately or submits the request to the admission
 * queue and relays the response — a linear-time policy is solved
 * right there on the handler, only exact searches wait for the
 * admission worker.  Framing is recovered at the `end`
 * scan, so one malformed request never desynchronizes or kills a
 * connection — the client gets a structured INVALID_ARGUMENT frame
 * and can keep the socket.
 *
 * Embeddable by design: the loopback tests and bench_service run the
 * server in-process on an ephemeral port; jitschedd_main.cc adds
 * argument parsing and signal handling around the same class.
 */

#ifndef JITSCHED_SERVICE_SERVER_HH
#define JITSCHED_SERVICE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "service/admission.hh"
#include "service/engine.hh"
#include "service/result_cache.hh"

namespace jitsched {

/** Knobs of the daemon front end. */
struct ServerConfig
{
    /** Address to bind; loopback by default. */
    std::string bindAddress = "127.0.0.1";

    /** Port to bind; 0 picks an ephemeral port (see port()). */
    std::uint16_t port = 0;

    /** listen(2) backlog. */
    int acceptBacklog = 64;

    /** Concurrent connection handlers. */
    std::size_t handlerThreads = 4;

    /**
     * Largest accepted request frame (and single line) in bytes.  A
     * client that streams past this without an `end` line gets an
     * INVALID_ARGUMENT response and is disconnected — the frame
     * cannot be resynchronized without reading an unbounded amount.
     */
    std::size_t maxFrameBytes = std::size_t(1) << 20;

    /** Admission-queue knobs. */
    AdmissionConfig admission;

    /**
     * Request-level result-cache budget in bytes
     * (service/result_cache.hh); 0 disables the cache entirely —
     * byte-for-byte today's behavior.
     */
    std::size_t resultCacheBytes = 0;

    /**
     * Warm-restart snapshot file: loaded (strictly validated) on
     * start(), written on clean stop() and on the SNAPSHOT verb.
     * Empty disables snapshots.  Only meaningful with the cache on.
     */
    std::string snapshotPath;
};

class ServiceServer
{
  public:
    /** @param engine must outlive the server */
    explicit ServiceServer(ServiceEngine &engine,
                           ServerConfig cfg = {});

    /** Stops and joins everything. */
    ~ServiceServer();

    ServiceServer(const ServiceServer &) = delete;
    ServiceServer &operator=(const ServiceServer &) = delete;

    /**
     * Bind, listen, and spawn the acceptor + handlers.
     *
     * A stopped server can be started again: the second start()
     * rebinds the port the first one landed on (even when cfg.port
     * was 0), so a bounced backend comes back on the address its
     * cluster router knows.  Counters survive the bounce.
     *
     * @return true on success; false with *error set otherwise
     */
    bool start(std::string *error = nullptr);

    /**
     * Stop accepting, close connections, join threads; idempotent.
     * The server may be start()ed again afterwards.
     */
    void stop();

    /** The port actually bound (valid after start()). */
    std::uint16_t port() const { return port_; }

    const std::string &bindAddress() const
    {
        return cfg_.bindAddress;
    }

    /** Connections accepted since start(). */
    std::uint64_t connectionsAccepted() const
    {
        return connections_.load(std::memory_order_relaxed);
    }

    /**
     * Connections dropped since start(): accept() failures that
     * triggered the backoff path (EMFILE and friends) — each one a
     * client the daemon turned away without a response.
     */
    std::uint64_t connectionsDropped() const
    {
        return dropped_.load(std::memory_order_relaxed);
    }

    /** Request frames answered (valid and malformed). */
    std::uint64_t framesServed() const
    {
        return frames_.load(std::memory_order_relaxed);
    }

    AdmissionQueue &admission() { return queue_; }

    /** The request-level result cache (disabled unless configured). */
    ResultCache &resultCache() { return rcache_; }

  private:
    void acceptLoop();
    void handlerLoop();
    void handleConnection(int fd);

    ServiceEngine &engine_;
    const ServerConfig cfg_;
    AdmissionQueue queue_;
    ResultCache rcache_;

    int listen_fd_ = -1;
    std::uint16_t port_ = 0;
    std::atomic<bool> stopping_{false};
    bool started_ = false;

    std::mutex conn_mutex_;
    std::condition_variable conn_cv_;
    std::deque<int> conn_queue_;

    /**
     * Fds currently owned by a handler, so stop() can shutdown(2)
     * them and unblock handlers parked in a read on an idle
     * connection.  Guarded by conn_mutex_.
     */
    std::unordered_set<int> active_fds_;

    std::atomic<std::uint64_t> connections_{0};
    std::atomic<std::uint64_t> dropped_{0};
    std::atomic<std::uint64_t> frames_{0};

    std::thread acceptor_;
    std::vector<std::thread> handlers_;
};

} // namespace jitsched

#endif // JITSCHED_SERVICE_SERVER_HH
