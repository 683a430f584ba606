// Open-loop HTTP/1.1 load generator for the PathRank benchmark.
//
// Single process, single thread, non-blocking: requests leave on the
// schedule read from a file, over at most --conns keep-alive loopback
// connections (one request in flight per connection, no pipelining). A
// request that falls due while every connection is busy waits in a FIFO;
// its latency is still timed from the scheduled send, so a stall is
// charged to every request it delays (no coordinated omission).
//
// It links nothing from the PathRank sources on purpose: the benchmark
// must not change when the server's own HTTP code does.
//
//   loadgen --port P --conns C --schedule FILE --out FILE [--timeout-ms T]
//
// Schedule: one request per line, "<due_us>\t<METHOD>\t<path>\t<body>".
// Output: one record per request,
//   "<index> <due_ns> <ready_ns> <sent_ns> <done_ns> <status> <nbytes>\n"
// followed by the <nbytes> response body and "\n". Times are ns since the
// schedule origin. ready_ns is when the request could first have left
// (its due time, or the moment a connection freed up for it), so
// sent_ns - ready_ns is the generator's own lateness. status is the HTTP
// status, 0 for a transport error (including a refused connection) and -1
// for a timeout: no response --timeout-ms after the request's due time,
// whether it was sent or still queued. A dead server therefore turns into
// failed records, never into a generator that waits for ever.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <deque>
#include <fstream>
#include <string>
#include <vector>

namespace {

struct Request {
  int64_t due_ns = 0;
  std::string wire;  // the full HTTP request bytes
  int64_t ready_ns = -1;
  int64_t sent_ns = -1;
  int64_t done_ns = -1;
  int status = -2;  // -2 = never completed
  std::string body;
};

struct Conn {
  int fd = -1;
  long current = -1;  // request index in flight, -1 when idle
  int64_t free_since_ns = 0;
  std::string out;
  size_t out_off = 0;
  std::string in;
};

int64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "loadgen: %s\n", message.c_str());
  std::exit(2);
}

std::vector<Request> ReadSchedule(const std::string& path, int port) {
  std::ifstream in(path);
  if (!in) Die("cannot open schedule " + path);
  std::vector<Request> requests;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const size_t t1 = line.find('\t');
    const size_t t2 = t1 == std::string::npos ? t1 : line.find('\t', t1 + 1);
    const size_t t3 = t2 == std::string::npos ? t2 : line.find('\t', t2 + 1);
    if (t3 == std::string::npos) Die("malformed schedule line: " + line);
    Request r;
    r.due_ns = std::strtoll(line.c_str(), nullptr, 10) * 1000;
    const std::string method = line.substr(t1 + 1, t2 - t1 - 1);
    const std::string target = line.substr(t2 + 1, t3 - t2 - 1);
    const std::string body = line.substr(t3 + 1);
    r.wire = method + " " + target + " HTTP/1.1\r\nHost: 127.0.0.1:" +
             std::to_string(port) + "\r\n";
    if (method == "POST") {
      r.wire += "Content-Type: application/json\r\nContent-Length: " +
                std::to_string(body.size()) + "\r\n\r\n" + body;
    } else {
      r.wire += "\r\n";
    }
    requests.push_back(std::move(r));
  }
  return requests;
}

int Connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) Die("socket failed");
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 &&
      errno != EINPROGRESS) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Parses one complete response from `in`. Returns the bytes it spans, or
// 0 while incomplete, or -1 when the response is malformed.
long ParseResponse(const std::string& in, int* status, std::string* body) {
  const size_t head_end = in.find("\r\n\r\n");
  if (head_end == std::string::npos) return in.size() > (64u << 10) ? -1 : 0;
  if (in.compare(0, 9, "HTTP/1.1 ") != 0 || head_end < 12) return -1;
  *status = std::atoi(in.c_str() + 9);
  long length = -1;
  size_t pos = in.find("\r\n") + 2;
  while (pos < head_end) {
    const size_t eol = in.find("\r\n", pos);
    const std::string header = in.substr(pos, eol - pos);
    if (strncasecmp(header.c_str(), "content-length:", 15) == 0) {
      length = std::atol(header.c_str() + 15);
    }
    pos = eol + 2;
  }
  if (length < 0) return -1;
  const size_t total = head_end + 4 + static_cast<size_t>(length);
  if (in.size() < total) return 0;
  body->assign(in, head_end + 4, static_cast<size_t>(length));
  return static_cast<long>(total);
}

}  // namespace

int main(int argc, char** argv) {
  int port = -1;
  int num_conns = 4;
  int64_t timeout_ns = 10'000'000'000LL;
  std::string schedule_path;
  std::string out_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--port") {
      port = std::atoi(value.c_str());
    } else if (key == "--conns") {
      num_conns = std::atoi(value.c_str());
    } else if (key == "--schedule") {
      schedule_path = value;
    } else if (key == "--out") {
      out_path = value;
    } else if (key == "--timeout-ms") {
      timeout_ns = std::atoll(value.c_str()) * 1'000'000LL;
    } else {
      Die("unknown flag " + key);
    }
  }
  if (port <= 0 || num_conns <= 0 || schedule_path.empty() ||
      out_path.empty()) {
    Die("usage: loadgen --port P --conns C --schedule FILE --out FILE "
        "[--timeout-ms T]");
  }

  std::vector<Request> requests = ReadSchedule(schedule_path, port);
  const int ep = ::epoll_create1(0);
  const int timer = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK);
  if (ep < 0 || timer < 0) Die("epoll/timerfd failed");
  epoll_event tev{};
  tev.events = EPOLLIN;
  tev.data.u64 = ~0ULL;
  ::epoll_ctl(ep, EPOLL_CTL_ADD, timer, &tev);

  std::vector<Conn> conns(static_cast<size_t>(num_conns));
  auto open_conn = [&](size_t c, int64_t now) {
    Conn& conn = conns[c];
    conn = Conn{};
    conn.free_since_ns = now;
    conn.fd = Connect(port);
    if (conn.fd < 0) return;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = c;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, conn.fd, &ev);
  };

  const int64_t origin = NowNs();
  for (size_t c = 0; c < conns.size(); ++c) open_conn(c, 0);

  size_t next_due = 0;  // first request not yet moved to `ready`
  std::deque<size_t> ready;
  size_t completed = 0;

  auto complete = [&](size_t idx, int status, int64_t now) {
    Request& r = requests[idx];
    r.status = status;
    r.done_ns = now;
    ++completed;
  };

  auto finish = [&](size_t c, int status, int64_t now, bool reconnect) {
    Conn& conn = conns[c];
    complete(static_cast<size_t>(conn.current), status, now);
    conn.current = -1;
    conn.free_since_ns = now;
    conn.in.clear();
    if (reconnect) {
      ::close(conn.fd);
      open_conn(c, now);
    }
  };

  auto flush = [&](size_t c, int64_t now) {
    Conn& conn = conns[c];
    while (conn.out_off < conn.out.size()) {
      const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_off,
                               conn.out.size() - conn.out_off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOTCONN) {
          epoll_event ev{};
          ev.events = EPOLLIN | EPOLLOUT;
          ev.data.u64 = c;
          ::epoll_ctl(ep, EPOLL_CTL_MOD, conn.fd, &ev);
          return;
        }
        if (errno == EINTR) continue;
        finish(c, 0, now, true);
        return;
      }
      conn.out_off += static_cast<size_t>(n);
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = c;
    ::epoll_ctl(ep, EPOLL_CTL_MOD, conn.fd, &ev);
  };

  auto dispatch = [&](int64_t now) {
    while (next_due < requests.size() && requests[next_due].due_ns <= now) {
      ready.push_back(next_due++);
    }
    // Queued requests past their timeout fail without being sent.
    while (!ready.empty() &&
           now - requests[ready.front()].due_ns > timeout_ns) {
      complete(ready.front(), -1, now);
      ready.pop_front();
    }
    for (size_t c = 0; c < conns.size() && !ready.empty(); ++c) {
      Conn& conn = conns[c];
      if (conn.current >= 0) continue;
      if (conn.fd < 0) open_conn(c, now);
      while (conn.fd < 0 && !ready.empty()) {
        // The connection cannot be (re)opened: the request at the head
        // of the queue fails as a transport error, and the next one gets
        // its own attempt.
        Request& r = requests[ready.front()];
        r.ready_ns = r.sent_ns = now;
        complete(ready.front(), 0, now);
        ready.pop_front();
        open_conn(c, now);
      }
      if (ready.empty()) break;
      const size_t idx = ready.front();
      ready.pop_front();
      Request& r = requests[idx];
      r.ready_ns = std::max(r.due_ns, conn.free_since_ns);
      r.sent_ns = now;
      conn.current = static_cast<long>(idx);
      conn.out = r.wire;
      conn.out_off = 0;
      flush(c, now);
    }
  };

  epoll_event events[64];
  while (completed < requests.size()) {
    int64_t now = NowNs() - origin;
    dispatch(now);
    for (size_t c = 0; c < conns.size(); ++c) {
      Conn& conn = conns[c];
      if (conn.current >= 0 &&
          now - requests[static_cast<size_t>(conn.current)].due_ns >
              timeout_ns) {
        finish(c, -1, now, true);
      }
    }
    // Sleep until the next due time (timerfd: ns precision), a socket
    // event, or at most 50 ms so timeouts are noticed.
    int64_t wake = now + 50'000'000LL;
    if (next_due < requests.size() && ready.empty()) {
      wake = std::min(wake, requests[next_due].due_ns);
    }
    const int64_t abs = origin + wake;
    itimerspec spec{};
    spec.it_value.tv_sec = abs / 1000000000LL;
    spec.it_value.tv_nsec = abs % 1000000000LL;
    ::timerfd_settime(timer, TFD_TIMER_ABSTIME, &spec, nullptr);
    const int n = ::epoll_wait(ep, events, 64, -1);
    now = NowNs() - origin;
    for (int i = 0; i < n; ++i) {
      if (events[i].data.u64 == ~0ULL) {
        uint64_t expirations = 0;
        (void)!::read(timer, &expirations, sizeof(expirations));
        continue;
      }
      const size_t c = events[i].data.u64;
      Conn& conn = conns[c];
      if (conn.fd < 0) continue;
      if (events[i].events & EPOLLOUT) flush(c, now);
      const uint32_t readable = EPOLLIN | EPOLLHUP | EPOLLERR;
      if (conn.fd < 0 || !(events[i].events & readable)) {
        continue;
      }
      char buf[65536];
      for (;;) {
        const ssize_t got = ::recv(conn.fd, buf, sizeof(buf), 0);
        if (got > 0) {
          conn.in.append(buf, static_cast<size_t>(got));
          continue;
        }
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (got < 0 && errno == EINTR) continue;
        // EOF or error: the server closed the connection.
        if (conn.current >= 0) {
          finish(c, 0, now, true);
        } else {
          ::close(conn.fd);
          open_conn(c, now);
        }
        break;
      }
      if (conn.current < 0 || conn.in.empty()) continue;
      int status = 0;
      std::string body;
      const long used = ParseResponse(conn.in, &status, &body);
      if (used < 0) {
        finish(c, 0, now, true);
      } else if (used > 0) {
        requests[static_cast<size_t>(conn.current)].body = std::move(body);
        const bool extra = static_cast<size_t>(used) != conn.in.size();
        finish(c, status, now, extra);
      }
    }
  }

  for (Conn& conn : conns) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  FILE* out = std::fopen(out_path.c_str(), "wb");
  if (out == nullptr) Die("cannot write " + out_path);
  for (size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    std::fprintf(out, "%zu %lld %lld %lld %lld %d %zu\n", i,
                 static_cast<long long>(r.due_ns),
                 static_cast<long long>(r.ready_ns),
                 static_cast<long long>(r.sent_ns),
                 static_cast<long long>(r.done_ns), r.status, r.body.size());
    std::fwrite(r.body.data(), 1, r.body.size(), out);
    std::fputc('\n', out);
  }
  if (std::fclose(out) != 0) Die("write failed: " + out_path);
  return 0;
}
