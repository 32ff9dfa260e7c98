// /metrics endpoint round-trip over a real socket: scrape the registry
// through the daemon's HTTP responder and parse every line back.
#include "serve/httpd.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <pthread.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

namespace vdx::serve {
namespace {

/// One blocking HTTP/1.0 request against 127.0.0.1:port; returns the whole
/// response (status line + headers + body).
std::string http_get(std::uint16_t port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const std::string request = "GET " + target + " HTTP/1.0\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buffer[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string body_of(const std::string& response) {
  const std::size_t at = response.find("\r\n\r\n");
  return at == std::string::npos ? std::string{} : response.substr(at + 4);
}

TEST(ServeHttpd, MetricsScrapeRoundTripsEveryLine) {
  obs::MetricsRegistry registry;
  registry.counter("serve.rounds").add(42);
  registry.gauge("serve.active_sessions").set(17);
  auto latency = registry.histogram("serve.round_ms");
  for (int i = 1; i <= 100; ++i) latency.observe(static_cast<double>(i));

  Httpd httpd{registry, 0};
  ASSERT_GT(httpd.port(), 0);

  const std::string response = http_get(httpd.port(), "/metrics");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(response.find("Content-Type: text/plain"), std::string::npos);

  const std::string body = body_of(response);
  EXPECT_NE(body.find("serve_rounds 42"), std::string::npos);
  EXPECT_NE(body.find("serve_active_sessions 17"), std::string::npos);
  EXPECT_NE(body.find("serve_round_ms_count 100"), std::string::npos);

  // Every non-empty line is `name[{labels}] value` with a finite value —
  // the round-trip-parse half of the contract.
  std::istringstream lines{body};
  std::string line;
  std::size_t parsed = 0;
  bool saw_quantile = false;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string name = line.substr(0, space);
    char* end = nullptr;
    const double value = std::strtod(line.c_str() + space + 1, &end);
    EXPECT_TRUE(end != nullptr && *end == '\0') << line;
    EXPECT_TRUE(std::isfinite(value)) << line;
    EXPECT_FALSE(name.empty());
    saw_quantile = saw_quantile ||
                   name.find("quantile=\"0.999\"") != std::string::npos;
    ++parsed;
  }
  EXPECT_GE(parsed, 7u);  // counter + gauge + count/sum + >=3 quantiles
  EXPECT_TRUE(saw_quantile);
  EXPECT_EQ(httpd.requests(), 1u);
}

TEST(ServeHttpd, HealthzAndUnknownTargets) {
  obs::MetricsRegistry registry;
  Httpd httpd{registry, 0};
  const std::string healthz = http_get(httpd.port(), "/healthz");
  EXPECT_NE(healthz.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_EQ(body_of(healthz), "ok\n");
  const std::string missing = http_get(httpd.port(), "/nope");
  EXPECT_NE(missing.find("HTTP/1.0 404"), std::string::npos);
  EXPECT_EQ(httpd.requests(), 2u);
  httpd.stop();
  httpd.stop();  // idempotent
}

// /healthz with a HealthState attached surfaces the live lifecycle and
// brownout verdict instead of the legacy hard-coded "ok" — and tracks
// writer-side updates across scrapes of the same server.
TEST(ServeHttpd, HealthzReflectsLifecycleAndBrownout) {
  obs::MetricsRegistry registry;
  HealthState health;
  Httpd httpd{registry, 0, &health};
  ASSERT_GT(httpd.port(), 0);

  // Fresh state: healthy but not yet serving.
  EXPECT_EQ(body_of(http_get(httpd.port(), "/healthz")),
            "ok lifecycle=starting brownout_step=0 open_breakers=0\n");

  health.set_lifecycle(Lifecycle::kServing);
  health.set_brownout(resilience::Health::kDegraded, 2);
  health.set_open_breakers(1);
  EXPECT_EQ(body_of(http_get(httpd.port(), "/healthz")),
            "degraded lifecycle=serving brownout_step=2 open_breakers=1\n");

  health.set_brownout(resilience::Health::kCritical, 3);
  const std::string critical = body_of(http_get(httpd.port(), "/healthz"));
  EXPECT_EQ(critical.substr(0, critical.find(' ')), "critical");

  health.set_brownout(resilience::Health::kOk, 0);
  health.set_open_breakers(0);
  health.set_lifecycle(Lifecycle::kStopped);
  EXPECT_EQ(body_of(http_get(httpd.port(), "/healthz")),
            "ok lifecycle=stopped brownout_step=0 open_breakers=0\n");
  EXPECT_EQ(httpd.requests(), 4u);
}

TEST(ServeHttpd, EmptyRegistryStillServes) {
  obs::MetricsRegistry registry;
  Httpd httpd{registry, 0};
  const std::string response = http_get(httpd.port(), "/metrics");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
}

// Regression: the response loop used to abort on any write() that returned
// -1 — including EINTR — silently truncating large /metrics bodies; a peer
// that disconnected mid-send could even raise a fatal SIGPIPE. Scrape a
// multi-megabyte body through a deliberately tiny client receive buffer
// (forcing the server into many short, blockable writes) while an interval
// timer peppers the serve thread with signals, and require every byte.
TEST(ServeHttpd, LargeScrapeSurvivesSignalsAndShortWrites) {
  obs::MetricsRegistry registry;
  // ~50k series => a body well past any default socket buffer.
  for (int i = 0; i < 50000; ++i) {
    registry.counter("serve.slow_scrape_" + std::to_string(i)).add(i);
  }
  Httpd httpd{registry, 0};
  ASSERT_GT(httpd.port(), 0);

  // The serve thread inherited an unblocked SIGALRM at construction; block
  // it here so every timer tick is delivered to the serve thread, landing
  // mid-read or mid-send.
  struct sigaction action {};
  action.sa_handler = [](int) {};
  // No SA_RESTART: the whole point is to surface EINTR to the server.
  sigemptyset(&action.sa_mask);
  struct sigaction previous {};
  ASSERT_EQ(sigaction(SIGALRM, &action, &previous), 0);
  sigset_t block, old_mask;
  sigemptyset(&block);
  sigaddset(&block, SIGALRM);
  ASSERT_EQ(pthread_sigmask(SIG_BLOCK, &block, &old_mask), 0);
  itimerval timer{};
  timer.it_interval = {0, 2000};  // every 2ms
  timer.it_value = {0, 2000};
  ASSERT_EQ(setitimer(ITIMER_REAL, &timer, nullptr), 0);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int rcvbuf = 4096;  // keep the server's sends short
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf)), 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(httpd.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));

  // Drain slowly so the server's socket buffer stays full and its writes
  // keep blocking (prime EINTR territory).
  std::string response;
  char buffer[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n < 0) {
      ADD_FAILURE() << "recv failed: " << std::strerror(errno) << " after "
                    << response.size() << " bytes";
      break;
    }
    if (n == 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
    ::usleep(200);
  }
  ::close(fd);

  const itimerval disarm{};
  setitimer(ITIMER_REAL, &disarm, nullptr);
  sigaction(SIGALRM, &previous, nullptr);
  pthread_sigmask(SIG_SETMASK, &old_mask, nullptr);

  // The advertised length and the delivered body must agree exactly.
  const std::size_t header_at = response.find("Content-Length: ");
  ASSERT_NE(header_at, std::string::npos);
  const std::size_t advertised = std::strtoull(
      response.c_str() + header_at + std::string{"Content-Length: "}.size(),
      nullptr, 10);
  const std::string body = body_of(response);
  EXPECT_GT(advertised, 1u << 20);  // the scrape really was multi-megabyte
  EXPECT_EQ(body.size(), advertised);
  EXPECT_NE(body.find("serve_slow_scrape_49999 49999"), std::string::npos);
}

}  // namespace
}  // namespace vdx::serve
