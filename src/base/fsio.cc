#include "base/fsio.hh"

#include <cerrno>
#include <cstring>
#include <fstream>

#include <fcntl.h>
#include <unistd.h>

namespace vmsim
{

Status
fsyncStream(std::FILE *file, const std::string &path)
{
    if (std::fflush(file) != 0)
        return errnoError(path, "cannot flush '" + path + "'");
    int fd = ::fileno(file);
    if (fd < 0)
        return errnoError(path, "cannot get descriptor for '" + path +
                                    "'");
    if (::fsync(fd) != 0)
        return errnoError(path, "cannot fsync '" + path + "'");
    return Status();
}

Status
fsyncParentDir(const std::string &path)
{
    std::size_t slash = path.find_last_of('/');
    // "a/b" -> "a", "/b" -> "/", "b" -> "."
    const std::string dir = slash == std::string::npos ? std::string(".")
                            : slash == 0 ? std::string("/")
                                         : path.substr(0, slash);
    int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return errnoError(dir, "cannot open directory '" + dir +
                                   "' for fsync");
    int rc = ::fsync(fd);
    int saved = errno;
    ::close(fd);
    // Some filesystems reject fsync on directories; the rename is
    // already ordered on those, so EINVAL is not a failure.
    if (rc != 0 && saved != EINVAL) {
        errno = saved;
        return errnoError(dir, "cannot fsync directory '" + dir + "'");
    }
    return Status();
}

Status
atomicWriteFile(const std::string &path, const std::string &content)
{
    // Pid-unique scratch name: concurrent writers (e.g. shard workers
    // racing to create meta.json) must not steal each other's tmp file
    // out from under the rename; last rename wins intact.
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        return errnoError(tmp, "cannot open '" + tmp + "' for writing");
    std::size_t n = std::fwrite(content.data(), 1, content.size(), f);
    if (n != content.size()) {
        Error err = errnoError(tmp, "short write to '" + tmp + "'");
        std::fclose(f);
        std::remove(tmp.c_str());
        return err;
    }
    if (Status s = fsyncStream(f, tmp); !s.ok()) {
        std::fclose(f);
        std::remove(tmp.c_str());
        return s;
    }
    if (std::fclose(f) != 0)
        return errnoError(tmp, "cannot close '" + tmp + "'");
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        return errnoError(path, "cannot rename '" + tmp + "' to '" +
                                    path + "'");
    return fsyncParentDir(path);
}

AppendLog::~AppendLog()
{
    // Best-effort; callers that care about the final fsync call
    // close() themselves and inspect the Status.
    close();
}

Status
AppendLog::open(const std::string &path, bool durable)
{
    if (fd_ >= 0)
        close();
    path_ = path;
    durable_ = durable;
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd_ < 0)
        return errnoError(path, "cannot open append log '" + path + "'");
    return Status();
}

Status
AppendLog::writeAll(const char *data, std::size_t len)
{
    std::size_t off = 0;
    while (off < len) {
        ssize_t n = ::write(fd_, data + off, len - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return errnoError(path_, "cannot append to '" + path_ + "'");
        }
        off += static_cast<std::size_t>(n);
    }
    return Status();
}

Status
AppendLog::append(const std::string &line)
{
    panicIf(fd_ < 0, "append to a closed AppendLog");
    std::string framed = line;
    framed += '\n';
    // One write() per line: O_APPEND makes the offset update atomic,
    // so concurrent appenders (shard workers sharing a directory
    // scanning each other's logs) never interleave mid-line.
    if (Status s = writeAll(framed.data(), framed.size()); !s.ok())
        return s;
    if (durable_ && ::fsync(fd_) != 0)
        return errnoError(path_, "cannot fsync '" + path_ + "'");
    return Status();
}

Status
AppendLog::appendTorn(const std::string &line, std::size_t bytes)
{
    panicIf(fd_ < 0, "append to a closed AppendLog");
    if (bytes > line.size())
        bytes = line.size();
    if (Status s = writeAll(line.data(), bytes); !s.ok())
        return s;
    // A torn tail must be *on disk* for the recovery tests to see it.
    if (::fsync(fd_) != 0)
        return errnoError(path_, "cannot fsync '" + path_ + "'");
    return Status();
}

Status
AppendLog::close()
{
    if (fd_ < 0)
        return Status();
    int fd = fd_;
    fd_ = -1;
    if (durable_ && ::fsync(fd) != 0) {
        Error err = errnoError(path_, "cannot fsync '" + path_ + "'");
        ::close(fd);
        return err;
    }
    if (::close(fd) != 0)
        return errnoError(path_, "cannot close '" + path_ + "'");
    return Status();
}

Status
truncateFile(const std::string &path, std::uint64_t bytes)
{
    if (::truncate(path.c_str(), static_cast<off_t>(bytes)) != 0)
        return errnoError(path, "cannot truncate '" + path + "' to " +
                                    std::to_string(bytes) + " bytes");
    return Status();
}

} // namespace vmsim
