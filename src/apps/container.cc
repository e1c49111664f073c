#include "src/apps/container.h"

namespace lupine::apps {

ContainerImage MakeAlpineImage(const AppManifest& manifest) {
  ContainerImage image;
  image.name = manifest.name + ":alpine";
  image.app = manifest.name;
  image.entrypoint = {"/bin/" + manifest.name};
  image.env["PATH"] = "/usr/local/sbin:/usr/local/bin:/usr/sbin:/usr/bin:/sbin:/bin";
  image.env["HOME"] = "/root";
  image.mounts_proc = true;

  // Per-app flavour mirroring the official images.
  if (manifest.name == "redis") {
    image.env["REDIS_VERSION"] = "5.0.5";
    image.setup_dirs = {"/data"};
    image.entrypoint = {"/bin/redis", "/etc/redis.conf"};
  } else if (manifest.name == "nginx") {
    image.env["NGINX_VERSION"] = "1.17.2";
    image.setup_dirs = {"/var/cache/nginx", "/var/run"};
    image.ulimit_nofile = 65536;
  } else if (manifest.name == "postgres") {
    image.env["PGDATA"] = "/var/lib/postgresql/data";
    image.setup_dirs = {"/var/lib/postgresql/data", "/var/run/postgresql"};
    image.needs_entropy = true;
  } else if (manifest.name == "mysql" || manifest.name == "mariadb") {
    image.env.emplace("MYSQL_ALLOW_EMPTY_PASSWORD", "1");
    image.setup_dirs = {"/var/lib/mysql", "/var/run/mysqld"};
    image.needs_entropy = true;
  } else if (manifest.kind == AppKind::kServer) {
    image.setup_dirs = {"/var/run"};
  }
  return image;
}

}  // namespace lupine::apps
