/**
 * @file
 * An `smtstore` child process on loopback: started on an ephemeral
 * port, stopped with SIGTERM and reaped, never outliving the benchmark
 * (the child asks for SIGTERM when its parent dies).
 */

#ifndef SMTBENCH_STORE_SERVER_HH
#define SMTBENCH_STORE_SERVER_HH

#include <sys/types.h>

#include <string>

namespace smtbench
{

class StoreServer
{
  public:
    /** Start `binary --dir dir --port 0 --dispatch-threads N` and wait
     *  for its "serving ... on http://host:port" line (fatal if the
     *  server does not come up). */
    StoreServer(const std::string &binary, const std::string &dir,
                unsigned dispatch_threads);
    ~StoreServer();

    StoreServer(const StoreServer &) = delete;
    StoreServer &operator=(const StoreServer &) = delete;

    /** SIGTERM, wait (SIGKILL after 5 s), reap. Idempotent. */
    void stop();

    const std::string &url() const { return url_; }

    /** CPU time of every server thread so far (from schedstat). */
    double cpuSeconds() const;

  private:
    pid_t pid_ = -1;
    int out_ = -1;
    std::string url_;
};

} // namespace smtbench

#endif // SMTBENCH_STORE_SERVER_HH
