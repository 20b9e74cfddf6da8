#include "base/subprocess.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <sys/wait.h>
#include <unistd.h>

namespace vmsim
{

std::string
ExitStatus::toString() const
{
    if (signaled)
        return "signal " + std::to_string(signal) + " (" +
               std::string(strsignal(signal)) + ")";
    if (exited)
        return "exit " + std::to_string(exitCode);
    return "running";
}

Expected<pid_t>
spawnFunction(const std::function<int()> &fn)
{
    pid_t pid = ::fork();
    if (pid < 0)
        return errnoError("spawn", "fork failed");
    if (pid == 0) {
        int rc = 125;
        try {
            rc = fn();
        } catch (const std::exception &e) {
            std::fprintf(stderr, "subprocess: uncaught exception: %s\n",
                         e.what());
        } catch (...) {
            std::fprintf(stderr, "subprocess: uncaught exception\n");
        }
        std::fflush(nullptr);
        ::_exit(rc);
    }
    return pid;
}

Expected<ExitStatus>
waitProcess(pid_t pid)
{
    int status = 0;
    while (::waitpid(pid, &status, 0) != pid) {
        if (errno != EINTR)
            return errnoError("wait", "waitpid(" + std::to_string(pid) +
                                          ") failed");
    }
    ExitStatus st;
    if (WIFEXITED(status)) {
        st.exited = true;
        st.exitCode = WEXITSTATUS(status);
    } else if (WIFSIGNALED(status)) {
        st.signaled = true;
        st.signal = WTERMSIG(status);
    }
    return st;
}

} // namespace vmsim
