#include "store_server.hh"

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/logging.hh"

namespace smtbench
{

StoreServer::StoreServer(const std::string &binary, const std::string &dir,
                         unsigned dispatch_threads)
{
    int fds[2];
    smt_assert(::pipe(fds) == 0, "pipe failed");
    const std::string threads = std::to_string(dispatch_threads);
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    smt_assert(pid_ >= 0, "fork failed");
    if (pid_ == 0) {
        ::prctl(PR_SET_PDEATHSIG, SIGTERM);
        if (::getppid() != parent)
            ::_exit(1);
        ::dup2(fds[1], 1);
        ::close(fds[0]);
        ::close(fds[1]);
        ::execl(binary.c_str(), binary.c_str(), "--dir", dir.c_str(),
                "--bind", "127.0.0.1", "--port", "0",
                "--dispatch-threads", threads.c_str(),
                static_cast<char *>(nullptr));
        ::_exit(127);
    }
    ::close(fds[1]);
    out_ = fds[0];

    // "smtstore: serving DIR on http://127.0.0.1:PORT\n"
    std::string line;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (line.find('\n') == std::string::npos &&
           std::chrono::steady_clock::now() < deadline) {
        pollfd p{out_, POLLIN, 0};
        if (::poll(&p, 1, 200) <= 0)
            continue;
        char buf[256];
        const ssize_t n = ::read(out_, buf, sizeof buf);
        if (n <= 0)
            break;
        line.append(buf, static_cast<std::size_t>(n));
    }
    const auto at = line.find("http://");
    if (at == std::string::npos) {
        stop();
        smt_fatal("smtstore did not start (said: \"%s\")", line.c_str());
    }
    url_ = line.substr(at, line.find_first_of(" \n", at) - at);
}

StoreServer::~StoreServer()
{
    stop();
}

void
StoreServer::stop()
{
    if (pid_ > 0) {
        ::kill(pid_, SIGTERM);
        int status = 0;
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (::waitpid(pid_, &status, WNOHANG) == 0) {
            if (std::chrono::steady_clock::now() > deadline) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, &status, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        pid_ = -1;
    }
    if (out_ >= 0) {
        ::close(out_);
        out_ = -1;
    }
}

double
StoreServer::cpuSeconds() const
{
    // schedstat's first field is each thread's time on CPU, in ns.
    double ns = 0.0;
    const std::string tasks = "/proc/" + std::to_string(pid_) + "/task";
    std::error_code ec;
    for (const auto &task : std::filesystem::directory_iterator(tasks, ec)) {
        std::ifstream in(task.path() / "schedstat");
        double on_cpu = 0.0;
        if (in >> on_cpu)
            ns += on_cpu;
    }
    return ns / 1e9;
}

} // namespace smtbench
